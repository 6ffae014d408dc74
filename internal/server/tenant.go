package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"spot/internal/snapshot"
	"spot/internal/stream"
)

// request kinds handled by a tenant worker.
const (
	reqIngest uint8 = iota
	reqSnapshot
	reqRestore
	reqCheckpoint
	reqReplicate
)

// request is one unit of admitted work. Every admitted request gets
// exactly one response on resp — the worker drains its queue fully
// before exiting, so an accepted batch is never silently dropped.
type request struct {
	kind     uint8
	flat     []float64
	n        int
	scored   bool
	deadline time.Time // zero: no deadline
	snap     []byte    // reqRestore / reqReplicate payload
	replID   string    // reqReplicate: shipping primary's incarnation
	replSeq  uint64    // reqReplicate: generation sequence number
	replTick uint64    // reqReplicate: detector tick of the snapshot
	resp     chan response
}

// response is the worker's reply. code 0 means success.
type response struct {
	code     uint8
	msg      string
	t0       uint64
	verdicts []bool
	scores   []float64
	snap     []byte
	path     string
}

// TenantConfig declares one tenant detector the server hosts.
type TenantConfig struct {
	// Name addresses the tenant on the wire; required, at most 255
	// bytes.
	Name string
	// Stream is the tenant's detector configuration. Tenants with the
	// same Lambda share one immutable decay table (the server fills
	// Stream.Decay when unset).
	Stream stream.Config
	// Dir, when non-empty, is the tenant's checkpoint directory: the
	// server recovers from its newest verifiable generation on startup
	// and checkpoints into it on the configured cadence. Empty runs
	// the tenant without durability.
	Dir string
	// Keep is how many checkpoint generations to retain; <1 keeps 1.
	Keep int
}

// tenant couples one detector with the robustness machinery around
// it: the bounded admission queue, the single worker goroutine that
// exclusively drives the detector, the checkpoint keeper and the
// published status snapshot.
type tenant struct {
	name   string
	cfg    stream.Config
	opts   Options
	keeper *snapshot.Keeper

	// det is owned by the worker goroutine after start.
	det *stream.Detector

	// mu guards admission against queue close during drain.
	mu      sync.RWMutex
	closing bool
	queue   chan *request

	// Worker-owned checkpoint cadence state.
	sinceCkpt uint64
	lastCkpt  time.Time

	// saveWrap, when set (tests), wraps the writer each checkpoint
	// Save streams through — the checkpoint-under-load fault-injection
	// hook.
	saveWrap func(io.Writer) io.Writer

	// Worker-owned replication tracking: the last accepted generation,
	// keyed by the shipping primary's incarnation. A push from the same
	// incarnation must strictly advance both sequence number and tick;
	// a new incarnation (failover, primary restart) resets the baseline
	// and is followed wholesale.
	replID   string
	replSeq  uint64
	replTick uint64

	// Published state, read by any goroutine.
	stats        atomic.Pointer[stream.Stats]
	accepted     atomic.Uint64
	shed         atomic.Uint64
	deadlineMiss atomic.Uint64
	panics       atomic.Uint64
	ckptFails    atomic.Uint64
	lastCkptErr  atomic.Pointer[string]

	// Replication-receive counters (standby side).
	replAccepted atomic.Uint64
	replStale    atomic.Uint64
	replCorrupt  atomic.Uint64
	replLastID   atomic.Pointer[string]
	replLastSeq  atomic.Uint64
	replLastTick atomic.Uint64

	// ckptGen caches the newest durable checkpoint generation — written
	// by this tenant's own saves, so verified by construction — for the
	// ping identity reply, which must stay queue-free and cheap.
	ckptGen atomic.Uint64

	recoveredTick uint64
	recoveredPath string

	done chan struct{}
}

// newTenant builds a tenant: recover-from-checkpoint (newest
// verifiable generation) when a checkpoint directory is configured and
// holds one, fresh detector otherwise.
func newTenant(tc TenantConfig, opts Options) (*tenant, error) {
	if tc.Name == "" || len(tc.Name) > maxNameLen {
		return nil, fmt.Errorf("server: tenant name %q invalid", tc.Name)
	}
	t := &tenant{
		name:  tc.Name,
		cfg:   tc.Stream,
		opts:  opts,
		queue: make(chan *request, opts.QueueDepth),
		done:  make(chan struct{}),
	}
	if tc.Dir != "" {
		k, err := snapshot.NewKeeper(tc.Dir, tc.Keep)
		if err != nil {
			return nil, fmt.Errorf("server: tenant %s: %w", tc.Name, err)
		}
		t.keeper = k
		path, err := k.Load(func(r io.Reader) error {
			d, err := stream.Restore(r, t.cfg)
			if err != nil {
				return err
			}
			t.det = d
			return nil
		})
		switch {
		case err == nil:
			t.recoveredTick = t.det.Tick()
			t.recoveredPath = path
		case snapshot.IsNoCheckpoint(err):
			// Fresh start — either a new tenant or every retained
			// generation failed verification; the per-generation
			// reasons surface through keeper.Info in stats.
		default:
			return nil, fmt.Errorf("server: tenant %s: %w", tc.Name, err)
		}
	}
	if t.det == nil {
		d, err := stream.New(t.cfg)
		if err != nil {
			return nil, fmt.Errorf("server: tenant %s: %w", tc.Name, err)
		}
		t.det = d
	}
	if t.keeper != nil {
		if info, err := t.keeper.Info(); err == nil && info.Verified {
			t.ckptGen.Store(info.LatestSeq)
		}
	}
	t.lastCkpt = time.Now()
	t.publish()
	return t, nil
}

// start launches the worker goroutine.
func (t *tenant) start() { go t.run() }

// admit enqueues a request under admission control. A full queue sheds
// with ErrShed — the typed backpressure contract: the daemon never
// buffers beyond the configured depth, and nothing of a shed request
// was applied. ErrDraining after the drain began.
func (t *tenant) admit(req *request) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.closing {
		return ErrDraining
	}
	select {
	case t.queue <- req:
		t.accepted.Add(1)
		return nil
	default:
		t.shed.Add(1)
		return ErrShed
	}
}

// closeQueue stops admission and closes the queue so the worker drains
// and exits. Idempotent.
func (t *tenant) closeQueue() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closing {
		return
	}
	t.closing = true
	close(t.queue)
}

// run is the worker loop: the only goroutine that ever touches the
// detector, so every checkpoint, snapshot and restore observes it at
// a batch boundary with its shard workers idle. On drain it answers
// every remaining admitted request, takes a final checkpoint, and
// closes the detector.
func (t *tenant) run() {
	defer close(t.done)
	for req := range t.queue {
		t.handle(req)
	}
	if t.keeper != nil && t.sinceCkpt > 0 {
		t.finalCheckpoint()
	}
	t.det.Close()
	t.publish()
}

// finalCheckpoint takes the drain-time save with the same panic
// containment as request handling, so a poisoned save path cannot
// prevent the drain from closing the detector.
func (t *tenant) finalCheckpoint() {
	defer func() {
		if r := recover(); r != nil {
			t.panics.Add(1)
			msg := fmt.Sprint(r)
			t.lastCkptErr.Store(&msg)
		}
	}()
	t.checkpoint(t.det.Snapshot)
}

// handle serves one admitted request with per-request panic
// containment: a panic anywhere below becomes a CodeInternal response
// and the worker keeps serving — one poisoned request cannot take the
// tenant down.
func (t *tenant) handle(req *request) {
	defer func() {
		if r := recover(); r != nil {
			t.panics.Add(1)
			req.resp <- response{code: CodeInternal, msg: fmt.Sprint(r)}
		}
	}()
	if !req.deadline.IsZero() && time.Now().After(req.deadline) {
		// The deadline elapsed while queued: reply retryable-typed
		// without touching the detector, so a retry elsewhere cannot
		// double-apply the batch.
		t.deadlineMiss.Add(1)
		req.resp <- response{code: CodeDeadline}
		return
	}
	switch req.kind {
	case reqIngest:
		t.ingest(req)
	case reqSnapshot:
		var buf bytes.Buffer
		if err := t.det.Snapshot(&buf); err != nil {
			req.resp <- response{code: CodeInternal, msg: err.Error()}
			return
		}
		req.resp <- response{snap: buf.Bytes(), t0: t.det.Tick()}
	case reqRestore:
		// The receiving half of live migration.
		if t.apply(req) {
			req.resp <- response{}
		}
	case reqReplicate:
		t.replicate(req)
	case reqCheckpoint:
		if t.keeper == nil {
			req.resp <- response{code: CodeBadRequest, msg: "tenant has no checkpoint directory"}
			return
		}
		path, err := t.checkpoint(t.det.Snapshot)
		if err != nil {
			req.resp <- response{code: CodeInternal, msg: err.Error()}
			return
		}
		req.resp <- response{path: path}
	default:
		req.resp <- response{code: CodeBadRequest, msg: "unknown request kind"}
	}
}

// ingest runs one admitted batch through the detector and replies with
// verdicts (and scores when requested), then checkpoints if the
// cadence came due — at this exact batch boundary, while other tenants
// keep ingesting.
func (t *tenant) ingest(req *request) {
	t0 := t.det.Tick()
	out := make([]bool, req.n)
	var scores []float64
	if req.scored {
		scores = make([]float64, req.n)
	}
	if _, err := t.det.ProcessBatchScoredErr(req.flat, out, scores); err != nil {
		req.resp <- response{code: streamErrCode(err), msg: err.Error()}
		return
	}
	t.sinceCkpt += uint64(req.n)
	// Publish before replying, so a client that reads the tenant's
	// status right after Ingest returns sees this batch's tick.
	t.publish()
	req.resp <- response{t0: t0, verdicts: out, scores: scores}
	t.maybeCheckpoint()
}

// replicate applies one shipped snapshot generation — the standby's
// receiving half of warm-standby replication. The snapshot's framing
// and section CRCs are verified before anything is touched, then the
// generation is checked against the last one accepted from the same
// primary incarnation: a regressing sequence number or tick is the
// divergence signal and is refused with CodeStale, leaving the current
// state live. A new incarnation (failover or primary restart) resets
// the baseline and is followed wholesale, even backwards — the serving
// primary is authoritative. Accepted generations take the migration
// path (apply), so a standby with a keeper stores each one as it
// arrived: a standby crash recovers warm.
func (t *tenant) replicate(req *request) {
	if err := snapshot.Verify(bytes.NewReader(req.snap)); err != nil {
		t.replCorrupt.Add(1)
		req.resp <- response{code: CodeBadRequest, msg: fmt.Sprintf("replicated snapshot failed verification: %v", err)}
		return
	}
	if req.replID == t.replID && t.replID != "" {
		if req.replSeq <= t.replSeq {
			t.replStale.Add(1)
			req.resp <- response{code: CodeStale, msg: fmt.Sprintf("generation %d regresses held %d", req.replSeq, t.replSeq)}
			return
		}
		if req.replTick < t.replTick {
			t.replStale.Add(1)
			req.resp <- response{code: CodeStale, msg: fmt.Sprintf("tick %d regresses held %d", req.replTick, t.replTick)}
			return
		}
	}
	if !t.apply(req) {
		return
	}
	t.replID = req.replID
	t.replSeq = req.replSeq
	t.replTick = req.replTick
	id := req.replID
	t.replLastID.Store(&id)
	t.replLastSeq.Store(req.replSeq)
	t.replLastTick.Store(req.replTick)
	t.replAccepted.Add(1)
	req.resp <- response{}
}

// apply swaps in a detector restored from a received snapshot (req.snap)
// — the shared path of migration and replication. A replicated
// generation must also carry the tick its header declared. The old
// detector is closed only after the new one decoded cleanly. With a
// keeper the received bytes are then saved verbatim, so a crash right
// after the swap recovers the applied state, not the previous one.
// Under the same config those bytes are exactly what re-encoding the
// decoded detector would produce (snapshot → restore → snapshot is
// byte-stable); a receiver with another shard count stores the
// sender's layout, which recovery re-deals just as this restore did.
// On refusal apply sends the error reply and reports false.
func (t *tenant) apply(req *request) bool {
	d, err := stream.Restore(bytes.NewReader(req.snap), t.cfg)
	if err != nil {
		code := uint8(CodeBadRequest)
		if errors.Is(err, stream.ErrConfigMismatch) {
			code = CodeConflict
		}
		req.resp <- response{code: code, msg: err.Error()}
		return false
	}
	if req.kind == reqReplicate && d.Tick() != req.replTick {
		// The shipped header lied about the state it carries — refuse
		// rather than track a tick the detector does not hold.
		d.Close()
		req.resp <- response{code: CodeBadRequest, msg: fmt.Sprintf("snapshot tick %d does not match declared %d", d.Tick(), req.replTick)}
		return false
	}
	t.det.Close()
	t.det = d
	t.sinceCkpt = 0
	if t.keeper != nil {
		if _, err := t.checkpoint(func(w io.Writer) error {
			_, err := w.Write(req.snap)
			return err
		}); err != nil {
			// The applied state is live but not yet durable; the
			// failure is recorded and the next cadence retries.
			t.sinceCkpt = 1
		}
	}
	t.publish()
	return true
}

// maybeCheckpoint saves a generation when either cadence — points
// ingested or wall time since the last save — has come due. A failed
// save is recorded and serving continues: the previous generations
// are intact by the keeper's rename discipline, and the next boundary
// retries.
func (t *tenant) maybeCheckpoint() {
	if t.keeper == nil || t.sinceCkpt == 0 {
		return
	}
	due := t.opts.CheckpointPoints > 0 && t.sinceCkpt >= t.opts.CheckpointPoints
	if !due && t.opts.CheckpointInterval > 0 && time.Since(t.lastCkpt) >= t.opts.CheckpointInterval {
		due = true
	}
	if due {
		t.checkpoint(t.det.Snapshot)
	}
}

// checkpoint saves one generation — write streams it: the live
// detector's Snapshot, or the bytes of an applied snapshot — through
// the keeper's write-temp-fsync-rename discipline and resets the
// cadence clock on success.
func (t *tenant) checkpoint(write func(io.Writer) error) (string, error) {
	path, _, err := t.keeper.Save(func(w io.Writer) error {
		if t.saveWrap != nil {
			w = t.saveWrap(w)
		}
		return write(w)
	})
	if err != nil {
		t.ckptFails.Add(1)
		msg := err.Error()
		t.lastCkptErr.Store(&msg)
		return "", err
	}
	if seq, ok := t.keeper.NewestSeq(); ok {
		t.ckptGen.Store(seq)
	}
	t.sinceCkpt = 0
	t.lastCkpt = time.Now()
	t.publish()
	return path, nil
}

// publish refreshes the tenant's lock-free status snapshot; worker
// goroutine only.
func (t *tenant) publish() {
	st := t.det.Stats()
	t.stats.Store(&st)
}

// streamErrCode maps the detector's typed ingest errors to wire codes.
// Shape and input-contract violations are the caller's bug; ErrClosed
// only surfaces mid-drain.
func streamErrCode(err error) uint8 {
	switch {
	case errors.Is(err, stream.ErrClosed):
		return CodeDraining
	case errors.Is(err, stream.ErrBatchLength),
		errors.Is(err, stream.ErrNonFinite),
		errors.Is(err, stream.ErrScoringDisabled):
		return CodeBadRequest
	default:
		return CodeInternal
	}
}

// TenantStatus is one tenant's health as reported by the stats
// endpoint.
type TenantStatus struct {
	// Name is the tenant's wire name.
	Name string
	// Tick is the number of points the detector has ingested.
	Tick uint64
	// QueueLen and QueueCap describe the admission queue right now.
	QueueLen int
	QueueCap int
	// Accepted, Shed, DeadlineMisses and Panics are lifetime request
	// counters: admitted into the queue, rejected by backpressure,
	// expired before processing, contained worker panics.
	Accepted       uint64
	Shed           uint64
	DeadlineMisses uint64
	Panics         uint64
	// CheckpointFailures counts Saves that failed (previous
	// generations stay intact); LastCheckpointError is the most recent
	// failure's message.
	CheckpointFailures  uint64
	LastCheckpointError string
	// RecoveredTick and RecoveredPath describe startup recovery: the
	// tick the tenant resumed from and the generation it restored.
	// Zero/empty when the tenant started fresh.
	RecoveredTick uint64
	RecoveredPath string
	// ReplAccepted, ReplStale and ReplCorrupt count replication pushes
	// received as a standby: applied, refused for regressing a held
	// generation, refused for failing integrity verification.
	ReplAccepted uint64
	ReplStale    uint64
	ReplCorrupt  uint64
	// ReplPrimary, ReplSeq and ReplTick describe the last accepted
	// replication generation: the shipping primary's incarnation, its
	// sequence number, and the detector tick it carried.
	ReplPrimary string
	ReplSeq     uint64
	ReplTick    uint64
	// Checkpoint is the keeper's newest-generation metadata (zero when
	// the tenant runs without durability).
	Checkpoint snapshot.Info
	// Stream is the detector's full Stats snapshot as of the last
	// batch boundary, calibration counters included.
	Stream stream.Stats
}

// status assembles the tenant's health snapshot; safe from any
// goroutine (the stream stats are the worker's last published copy,
// the keeper metadata comes from the filesystem).
func (t *tenant) status() TenantStatus {
	ts := TenantStatus{
		Name:               t.name,
		QueueLen:           len(t.queue),
		QueueCap:           cap(t.queue),
		Accepted:           t.accepted.Load(),
		Shed:               t.shed.Load(),
		DeadlineMisses:     t.deadlineMiss.Load(),
		Panics:             t.panics.Load(),
		CheckpointFailures: t.ckptFails.Load(),
		RecoveredTick:      t.recoveredTick,
		RecoveredPath:      t.recoveredPath,
		ReplAccepted:       t.replAccepted.Load(),
		ReplStale:          t.replStale.Load(),
		ReplCorrupt:        t.replCorrupt.Load(),
		ReplSeq:            t.replLastSeq.Load(),
		ReplTick:           t.replLastTick.Load(),
	}
	if id := t.replLastID.Load(); id != nil {
		ts.ReplPrimary = *id
	}
	if msg := t.lastCkptErr.Load(); msg != nil {
		ts.LastCheckpointError = *msg
	}
	if st := t.stats.Load(); st != nil {
		ts.Stream = *st
		ts.Tick = st.Tick
	}
	if t.keeper != nil {
		if info, err := t.keeper.Info(); err == nil {
			ts.Checkpoint = info
		}
	}
	return ts
}
