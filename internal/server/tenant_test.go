package server

import (
	"testing"
	"time"
)

// TestIngestPublishesBeforeReply: a client that reads a tenant's status
// right after its Ingest returns must see that batch's tick. Each
// one-point ingest replies on an unbuffered channel, so the worker
// blocks on the send until the test receives; while it is blocked the
// published tick must already count the batch.
func TestIngestPublishesBeforeReply(t *testing.T) {
	const dims, n = 4, 50
	tn, err := newTenant(TenantConfig{Name: "a", Stream: testStream(dims)}, Options{QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	tn.start()
	defer func() {
		tn.closeQueue()
		<-tn.done
	}()
	flat := genPoints(3, n, dims)
	for i := 0; i < n; i++ {
		resp := make(chan response)
		if err := tn.admit(&request{kind: reqIngest, flat: flat[i*dims : (i+1)*dims], n: 1, resp: resp}); err != nil {
			t.Fatal(err)
		}
		// Give a slow worker up to a second to publish; a worker that
		// replies first never publishes while the reply is unreceived.
		want := uint64(i + 1)
		deadline := time.Now().Add(time.Second)
		for tn.status().Tick != want && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		got := tn.status().Tick
		r := <-resp
		if r.code != 0 || r.t0 != uint64(i) {
			t.Fatalf("ingest %d: code %d (%s), t0 %d", i, r.code, r.msg, r.t0)
		}
		if got != want {
			t.Fatalf("ingest %d: published tick %d while the reply was pending, want %d", i, got, want)
		}
	}
}
