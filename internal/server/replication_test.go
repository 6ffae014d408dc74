package server

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"spot/internal/stream"
)

// primarySnap drives a primary server's tenant forward by nbatches and
// exports its snapshot plus the tick it was taken at.
func primarySnap(t *testing.T, c *Client, flat []float64, batch, dims, nbatches int) ([]byte, uint64) {
	t.Helper()
	var tick uint64
	for i := 0; i < nbatches; i++ {
		res, err := c.Ingest("r", flat[i*batch*dims:(i+1)*batch*dims], batch, IngestOptions{})
		if err != nil {
			t.Fatal(err)
		}
		tick = res.T0 + uint64(batch)
	}
	snap, err := c.Snapshot("r")
	if err != nil {
		t.Fatal(err)
	}
	return snap, tick
}

// TestPingIdentity pins the extended ping reply: ID, role and the
// newest verified checkpoint generation, without touching any worker
// queue.
func TestPingIdentity(t *testing.T) {
	const dims, batch = 2, 20
	cfg := testStream(dims)
	_, addr := startServer(t, Options{ID: "alpha"}, []TenantConfig{{Name: "r", Stream: cfg, Dir: t.TempDir()}})
	c := dial(t, addr)

	info, err := c.PingInfo()
	if err != nil {
		t.Fatal(err)
	}
	if info.ID != "alpha" || info.Role != RolePrimary {
		t.Fatalf("ping identity = %+v, want ID alpha role primary", info)
	}
	if info.Generation != 0 {
		t.Fatalf("fresh server reports generation %d, want 0", info.Generation)
	}

	// A forced checkpoint advances the reported generation.
	flat := genPoints(7, batch, dims)
	if _, err := c.Ingest("r", flat, batch, IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Checkpoint("r"); err != nil {
		t.Fatal(err)
	}
	info, err = c.PingInfo()
	if err != nil {
		t.Fatal(err)
	}
	if info.Generation == 0 {
		t.Fatal("checkpointed server still reports generation 0")
	}
}

// TestStandbyRefusesIngestUntilPromoted pins the role gate and the
// explicit failover step: a standby refuses ingest with the typed
// ErrNotPrimary (nothing applied), Promote flips it exactly once, and
// after promotion the same connection's ingest serves normally.
func TestStandbyRefusesIngestUntilPromoted(t *testing.T) {
	const dims, batch = 2, 20
	cfg := testStream(dims)
	s, addr := startServer(t, Options{ID: "bravo", Role: RoleStandby}, []TenantConfig{{Name: "r", Stream: cfg}})
	c := dial(t, addr)

	flat := genPoints(9, batch, dims)
	if _, err := c.Ingest("r", flat, batch, IngestOptions{}); !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("ingest into standby: got %v, want ErrNotPrimary", err)
	}
	ts, _ := s.Tenant("r")
	if ts.Tick != 0 {
		t.Fatalf("refused ingest advanced the detector to tick %d", ts.Tick)
	}
	if info, _ := c.PingInfo(); info.Role != RoleStandby {
		t.Fatalf("ping role = %v, want standby", info.Role)
	}

	if err := c.Promote(); err != nil {
		t.Fatal(err)
	}
	if err := c.Promote(); err != nil { // idempotent
		t.Fatal(err)
	}
	st, err := c.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Role != "primary" || st.Promotions != 1 {
		t.Fatalf("after double promote: role %s promotions %d, want primary/1", st.Role, st.Promotions)
	}
	if _, err := c.Ingest("r", flat, batch, IngestOptions{}); err != nil {
		t.Fatalf("ingest after promotion: %v", err)
	}
}

// TestReplicatePush pins the standby's receive path end to end: an
// accepted generation swaps the detector in at the declared tick and is
// immediately checkpointed; pushes that regress the held generation
// from the same incarnation are refused with ErrStaleGeneration while a
// new incarnation resets the baseline; corrupt snapshots are refused
// before anything is touched; and a primary target refuses the push
// outright with ErrNotStandby.
func TestReplicatePush(t *testing.T) {
	const dims, batch, batches = 3, 25, 6
	cfg := testStream(dims)
	flat := genPoints(11, batch*batches, dims)

	_, priAddr := startServer(t, Options{ID: "pri"}, []TenantConfig{{Name: "r", Stream: cfg}})
	sb, sbAddr := startServer(t, Options{ID: "sb", Role: RoleStandby}, []TenantConfig{{Name: "r", Stream: cfg, Dir: t.TempDir()}})
	cp, cs := dial(t, priAddr), dial(t, sbAddr)

	// Shipping into a primary is mis-wiring, refused typed.
	snap1, tick1 := primarySnap(t, cp, flat, batch, dims, batches/2)
	if err := cp.Replicate("r", "pri-1", 1, tick1, snap1); !errors.Is(err, ErrNotStandby) {
		t.Fatalf("replicate into primary: got %v, want ErrNotStandby", err)
	}

	// First generation lands and is immediately durable.
	if err := cs.Replicate("r", "pri-1", 1, tick1, snap1); err != nil {
		t.Fatal(err)
	}
	ts, _ := sb.Tenant("r")
	if ts.Tick != tick1 || ts.ReplAccepted != 1 || ts.ReplSeq != 1 || ts.ReplPrimary != "pri-1" {
		t.Fatalf("after first push: %+v", ts)
	}
	if ts.Checkpoint.Generations == 0 || !ts.Checkpoint.Verified {
		t.Fatalf("accepted generation not checkpointed: %+v", ts.Checkpoint)
	}

	// Same incarnation must strictly advance: a replayed or regressing
	// sequence number is the divergence signal.
	if err := cs.Replicate("r", "pri-1", 1, tick1, snap1); !errors.Is(err, ErrStaleGeneration) {
		t.Fatalf("replayed generation: got %v, want ErrStaleGeneration", err)
	}

	snap2, tick2 := primarySnap(t, cp, flat[batches/2*batch*dims:], batch, dims, batches/2)
	if err := cs.Replicate("r", "pri-1", 2, tick2, snap2); err != nil {
		t.Fatal(err)
	}
	// A later sequence number carrying an older tick is equally stale.
	if err := cs.Replicate("r", "pri-1", 3, tick1, snap1); !errors.Is(err, ErrStaleGeneration) {
		t.Fatalf("regressing tick: got %v, want ErrStaleGeneration", err)
	}

	// Corrupt bytes are refused before anything is touched.
	if err := cs.Replicate("r", "pri-1", 3, tick2, snap2[:len(snap2)-5]); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("corrupt snapshot: got %v, want ErrBadRequest", err)
	}
	// A header lying about the state it carries is refused too.
	if err := cs.Replicate("r", "pri-1", 3, tick2+1, snap2); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("mismatched declared tick: got %v, want ErrBadRequest", err)
	}

	// A new incarnation (the primary restarted) resets the baseline and
	// is followed even backwards: the serving primary is authoritative.
	if err := cs.Replicate("r", "pri-2", 1, tick1, snap1); err != nil {
		t.Fatalf("new incarnation refused: %v", err)
	}
	ts, _ = sb.Tenant("r")
	if ts.Tick != tick1 || ts.ReplPrimary != "pri-2" || ts.ReplSeq != 1 {
		t.Fatalf("after incarnation reset: %+v", ts)
	}
	if ts.ReplStale != 2 || ts.ReplCorrupt != 1 {
		t.Fatalf("refusal counters: stale %d corrupt %d, want 2/1", ts.ReplStale, ts.ReplCorrupt)
	}
}

// TestSnapshotTenantInProcess pins the shipper's in-process snapshot
// entry: it goes through the worker queue like a wire request, returns
// the tick the snapshot was taken at, and refuses before Serve.
func TestSnapshotTenantInProcess(t *testing.T) {
	const dims, batch = 2, 20
	cfg := testStream(dims)

	unstarted, err := New(Options{}, []TenantConfig{{Name: "r", Stream: cfg}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := unstarted.SnapshotTenant("r"); !errors.Is(err, ErrNotServing) {
		t.Fatalf("snapshot before Serve: got %v, want ErrNotServing", err)
	}

	s, addr := startServer(t, Options{}, []TenantConfig{{Name: "r", Stream: cfg}})
	c := dial(t, addr)
	flat := genPoints(3, batch, dims)
	if _, err := c.Ingest("r", flat, batch, IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	snap, tick, err := s.SnapshotTenant("r")
	if err != nil {
		t.Fatal(err)
	}
	if tick != batch {
		t.Fatalf("snapshot tick %d, want %d", tick, batch)
	}
	d, err := stream.Restore(strings.NewReader(string(snap)), cfg)
	if err != nil {
		t.Fatalf("in-process snapshot does not restore: %v", err)
	}
	defer d.Close()
	if d.Tick() != uint64(batch) {
		t.Fatalf("restored tick %d, want %d", d.Tick(), batch)
	}
	if _, _, err := s.SnapshotTenant("nope"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("unknown tenant: got %v, want ErrUnknownTenant", err)
	}
}

// TestApplyStoresReceivedBytes pins the receivers' one apply path: an
// accepted replication push and a migration restore each save the
// snapshot bytes they received as the newest checkpoint generation,
// without re-encoding the detector they just decoded. The restore leg
// lands in a receiver with another shard count, which therefore stores
// the sender's layout; a server recovering from that generation
// re-deals the subspaces as the live restore did and continues the
// primary's stream bit for bit.
func TestApplyStoresReceivedBytes(t *testing.T) {
	const dims, batch = 3, 30
	cfg := testStream(dims)
	flat := genPoints(23, 4*batch, dims)
	_, addrP := startServer(t, Options{ID: "p"}, []TenantConfig{{Name: "r", Stream: cfg}})
	cP := dial(t, addrP)
	snap, tick := primarySnap(t, cP, flat, batch, dims, 2)

	stored := func(c *Client, leg string) TenantStatus {
		t.Helper()
		ts, err := c.TenantStats("r")
		if err != nil {
			t.Fatalf("%s: %v", leg, err)
		}
		got, err := os.ReadFile(ts.Checkpoint.LatestPath)
		if err != nil {
			t.Fatalf("%s: newest generation: %v", leg, err)
		}
		if !bytes.Equal(got, snap) {
			t.Errorf("%s: newest generation (%d bytes) is not the %d bytes received", leg, len(got), len(snap))
		}
		if ts.Stream.Checkpoints != 0 {
			t.Errorf("%s: receiver encoded its detector %d times, want 0", leg, ts.Stream.Checkpoints)
		}
		return ts
	}

	_, addrS := startServer(t, Options{ID: "s", Role: RoleStandby},
		[]TenantConfig{{Name: "r", Stream: cfg, Dir: t.TempDir()}})
	cS := dial(t, addrS)
	if err := cS.Replicate("r", "p", 1, tick, snap); err != nil {
		t.Fatal(err)
	}
	if ts := stored(cS, "replicate"); ts.ReplAccepted != 1 || ts.Tick != tick {
		t.Fatalf("replicate: accepted %d at tick %d, want 1 at %d", ts.ReplAccepted, ts.Tick, tick)
	}

	other := cfg
	other.Shards = 2
	dir := t.TempDir()
	sM, addrM := startServer(t, Options{ID: "m"}, []TenantConfig{{Name: "r", Stream: other, Dir: dir}})
	cM := dial(t, addrM)
	if err := cM.Restore("r", snap); err != nil {
		t.Fatal(err)
	}
	stored(cM, "restore")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sM.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	sR, addrR := startServer(t, Options{ID: "m"}, []TenantConfig{{Name: "r", Stream: other, Dir: dir}})
	if ts, _ := sR.Tenant("r"); ts.RecoveredTick != tick {
		t.Fatalf("recovered at tick %d, want %d", ts.RecoveredTick, tick)
	}
	cR := dial(t, addrR)
	for i := 2; i < 4; i++ {
		chunk := flat[i*batch*dims : (i+1)*batch*dims]
		want, err := cP.Ingest("r", chunk, batch, IngestOptions{Scored: true})
		if err != nil {
			t.Fatal(err)
		}
		got, err := cR.Ingest("r", chunk, batch, IngestOptions{Scored: true})
		if err != nil {
			t.Fatal(err)
		}
		if got.T0 != want.T0 {
			t.Fatalf("batch %d: recovered T0 %d, primary %d", i, got.T0, want.T0)
		}
		for j := range want.Verdicts {
			if got.Verdicts[j] != want.Verdicts[j] || math.Float64bits(got.Scores[j]) != math.Float64bits(want.Scores[j]) {
				t.Fatalf("batch %d point %d: recovered (%v, %g), primary (%v, %g)",
					i, j, got.Verdicts[j], got.Scores[j], want.Verdicts[j], want.Scores[j])
			}
		}
	}
}
