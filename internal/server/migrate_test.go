package server

import (
	"errors"
	"testing"

	"spot/internal/stream"
)

// TestLiveMigration moves a tenant between two running servers
// mid-stream: snapshot out of A at a batch boundary, restore into B,
// continue the stream there. The stitched verdict sequence must be
// bit-identical to one uninterrupted oracle detector.
func TestLiveMigration(t *testing.T) {
	const dims, batch, batches = 3, 30, 8
	cfg := testStream(dims)
	flat := genPoints(40, batch*batches, dims)

	oracle, err := stream.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	want := make([]bool, batch*batches)
	if _, err := oracle.ProcessBatchScoredErr(flat, want, nil); err != nil {
		t.Fatal(err)
	}

	sA, addrA := startServer(t, Options{}, []TenantConfig{{Name: "m", Stream: cfg}})
	sB, addrB := startServer(t, Options{}, []TenantConfig{{Name: "m", Stream: cfg, Dir: t.TempDir()}})
	cA, cB := dial(t, addrA), dial(t, addrB)

	check := func(c *Client, i int) {
		t.Helper()
		res, err := c.Ingest("m", flat[i*batch*dims:(i+1)*batch*dims], batch, IngestOptions{})
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if res.T0 != uint64(i*batch) {
			t.Fatalf("batch %d: T0 %d, want %d", i, res.T0, i*batch)
		}
		for j, v := range res.Verdicts {
			if v != want[i*batch+j] {
				t.Fatalf("batch %d point %d diverged from uninterrupted oracle", i, j)
			}
		}
	}

	// First half on A.
	for i := 0; i < batches/2; i++ {
		check(cA, i)
	}

	// Migrate: snapshot out of A, restore into B.
	snap, err := cA.Snapshot("m")
	if err != nil {
		t.Fatal(err)
	}
	if err := cB.Restore("m", snap); err != nil {
		t.Fatal(err)
	}

	// The migrated state was immediately made durable on B.
	tsB, _ := sB.Tenant("m")
	if tsB.Checkpoint.Generations == 0 || !tsB.Checkpoint.Verified {
		t.Fatalf("migrated state not checkpointed on B: %+v", tsB.Checkpoint)
	}
	if tsB.Tick != uint64(batches/2*batch) {
		t.Fatalf("B resumed at tick %d, want %d", tsB.Tick, batches/2*batch)
	}

	// Second half on B, verdicts stitched seamlessly.
	for i := batches / 2; i < batches; i++ {
		check(cB, i)
	}

	// A is untouched by the export: still serving at its own tick.
	tsA, _ := sA.Tenant("m")
	if tsA.Tick != uint64(batches/2*batch) {
		t.Fatalf("A's tick moved to %d during migration", tsA.Tick)
	}
}

// TestMigrationConfigConflict pins the conflict contract: restoring a
// snapshot into a tenant whose configuration does not match is refused
// with the typed ErrConflict and leaves the target untouched.
func TestMigrationConfigConflict(t *testing.T) {
	const dims, batch = 3, 20
	cfg := testStream(dims)
	other := testStream(dims)
	other.Phi = cfg.Phi * 2

	_, addrA := startServer(t, Options{}, []TenantConfig{{Name: "m", Stream: cfg}})
	_, addrB := startServer(t, Options{}, []TenantConfig{{Name: "m", Stream: other}})
	cA, cB := dial(t, addrA), dial(t, addrB)

	if _, err := cA.Ingest("m", genPoints(41, batch, dims), batch, IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	snap, err := cA.Snapshot("m")
	if err != nil {
		t.Fatal(err)
	}
	if err := cB.Restore("m", snap); !errors.Is(err, ErrConflict) {
		t.Fatalf("mismatched restore: got %v, want ErrConflict", err)
	}
	ts, err := cB.TenantStats("m")
	if err != nil {
		t.Fatal(err)
	}
	if ts.Tick != 0 {
		t.Fatalf("refused restore advanced B to tick %d", ts.Tick)
	}
	// Garbage bytes are a bad request, not a conflict.
	if err := cB.Restore("m", []byte("not a snapshot")); errors.Is(err, ErrConflict) || err == nil {
		t.Fatalf("garbage restore: got %v", err)
	}
}
