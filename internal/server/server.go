package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"spot/internal/core"
)

// Role is a server's position in a replication pair: a primary serves
// ingest and ships snapshot generations; a standby refuses ingest with
// CodeNotPrimary and accepts replication pushes until promoted.
type Role uint8

// The two server roles. RolePrimary is the zero value, so an
// unconfigured server behaves exactly as before replication existed.
const (
	RolePrimary Role = iota
	RoleStandby
)

// String names the role for stats and logs.
func (r Role) String() string {
	if r == RoleStandby {
		return "standby"
	}
	return "primary"
}

// ErrNotServing marks an in-process request (e.g. a replication
// shipper's snapshot) made before Serve started the tenant workers.
var ErrNotServing = errors.New("server: not serving yet")

// Options tunes the server's robustness machinery; zero values take
// the documented defaults.
type Options struct {
	// QueueDepth is each tenant's admission-queue capacity: the most
	// ingest batches that may be queued before new ones shed with
	// CodeShed. Default 64.
	QueueDepth int
	// CheckpointPoints checkpoints a tenant after this many ingested
	// points since its last save. 0 disables the points cadence.
	CheckpointPoints uint64
	// CheckpointInterval checkpoints a tenant when this much wall time
	// passed since its last save and new points arrived. 0 disables
	// the time cadence. With both cadences zero, tenants with a
	// checkpoint directory still checkpoint on drain and migration.
	CheckpointInterval time.Duration
	// MaxDeadline caps a client-requested deadline budget. Default 1m.
	MaxDeadline time.Duration
	// ID names this server on the wire: ping replies and replication
	// pushes carry it so clients and standbys can detect mis-wiring.
	// Default "spotd".
	ID string
	// Role is the server's starting replication role. RolePrimary (the
	// zero value) serves ingest; RoleStandby refuses it until Promote.
	Role Role
}

func (o *Options) defaults() {
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.MaxDeadline <= 0 {
		o.MaxDeadline = time.Minute
	}
	if o.ID == "" {
		o.ID = "spotd"
	}
}

// Server hosts a registry of tenant detectors behind the wire
// protocol. Build with New, start with Serve, stop with Shutdown.
type Server struct {
	opts    Options
	tenants map[string]*tenant

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	draining atomic.Bool
	started  bool

	connWG sync.WaitGroup

	// role flips exactly once, standby → primary, on Promote.
	role atomic.Uint32

	// replStatus, when set, reports the replication shipper's health
	// into the stats endpoint (SetReplicationStatus).
	replStatus atomic.Pointer[func() ReplicationStatus]

	badFrames  atomic.Uint64
	connPanics atomic.Uint64
	promotions atomic.Uint64
}

// New builds a server hosting the given tenants. Each tenant with a
// checkpoint directory recovers from its newest verifiable generation;
// tenants sharing a Lambda share one immutable decay table.
func New(opts Options, tenants []TenantConfig) (*Server, error) {
	opts.defaults()
	if len(tenants) == 0 {
		return nil, errors.New("server: no tenants configured")
	}
	s := &Server{
		opts:    opts,
		tenants: make(map[string]*tenant, len(tenants)),
		conns:   make(map[net.Conn]struct{}),
	}
	decays := make(map[float64]*core.DecayTable)
	for _, tc := range tenants {
		if _, dup := s.tenants[tc.Name]; dup {
			return nil, fmt.Errorf("server: duplicate tenant %q", tc.Name)
		}
		if tc.Stream.Decay == nil {
			d, ok := decays[tc.Stream.Lambda]
			if !ok {
				d = core.NewDecayTable(tc.Stream.Lambda)
				decays[tc.Stream.Lambda] = d
			}
			tc.Stream.Decay = d
		}
		t, err := newTenant(tc, opts)
		if err != nil {
			return nil, err
		}
		s.tenants[tc.Name] = t
	}
	s.role.Store(uint32(opts.Role))
	return s, nil
}

// ID returns the server's wire identity.
func (s *Server) ID() string { return s.opts.ID }

// Role returns the server's current replication role.
func (s *Server) Role() Role { return Role(s.role.Load()) }

// Primary reports whether the server currently holds the primary role.
func (s *Server) Primary() bool { return s.Role() == RolePrimary }

// Promote flips the server to the primary role — the explicit
// failover step after the old primary died. Idempotent; once primary,
// a server never demotes itself (restart it as a standby instead), so
// there is no window where neither side serves ingest.
func (s *Server) Promote() {
	if s.role.Swap(uint32(RolePrimary)) != uint32(RolePrimary) {
		s.promotions.Add(1)
	}
}

// TenantNames lists the hosted tenants (stable registry, any order).
func (s *Server) TenantNames() []string {
	names := make([]string, 0, len(s.tenants))
	for name := range s.tenants {
		names = append(names, name)
	}
	return names
}

// SnapshotTenant takes one tenant's full snapshot at a batch boundary
// through its worker queue — the in-process entry the replication
// shipper uses. Returns the snapshot bytes and the detector tick they
// were taken at. Subject to the same admission control as wire
// requests: a saturated queue sheds with ErrShed and the caller
// retries on its next cadence.
func (s *Server) SnapshotTenant(name string) ([]byte, uint64, error) {
	s.mu.Lock()
	started := s.started
	s.mu.Unlock()
	if !started {
		return nil, 0, ErrNotServing
	}
	t, ok := s.tenants[name]
	if !ok {
		return nil, 0, fmt.Errorf("%w: %s", ErrUnknownTenant, name)
	}
	req := &request{kind: reqSnapshot, resp: make(chan response, 1)}
	if err := t.admit(req); err != nil {
		return nil, 0, err
	}
	resp := <-req.resp
	if resp.code != 0 {
		return nil, 0, codeErr(resp.code, resp.msg)
	}
	return resp.snap, resp.t0, nil
}

// SetReplicationStatus installs the callback the stats endpoint uses
// to report the replication shipper's health (the shipper lives above
// the server, so the server cannot observe it directly).
func (s *Server) SetReplicationStatus(fn func() ReplicationStatus) {
	s.replStatus.Store(&fn)
}

// Tenant returns a tenant's status, or false when the server does not
// host it.
func (s *Server) Tenant(name string) (TenantStatus, bool) {
	t, ok := s.tenants[name]
	if !ok {
		return TenantStatus{}, false
	}
	return t.status(), true
}

// Serve accepts connections on ln until Shutdown closes it. Each
// tenant worker starts on the first Serve call.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	if s.draining.Load() {
		// Shutdown won the race before the listener was stored and so
		// could not close it; honour the drain here.
		s.mu.Unlock()
		ln.Close()
		return nil
	}
	if !s.started {
		s.started = true
		for _, t := range s.tenants {
			t.start()
		}
	}
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.draining.Load() {
			s.mu.Unlock()
			c.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.connWG.Add(1)
		go s.handleConn(c)
	}
}

// Addr returns the listener's address, nil before Serve.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Shutdown drains the server: stop accepting, refuse new requests
// with CodeDraining, let every tenant worker finish its admitted
// queue (no accepted batch is dropped), take final checkpoints, close
// the detectors, then close lingering connections. The context bounds
// the wait; on expiry remaining connections are closed immediately
// (tenant queues are still drained — the workers own the data path
// and always run to completion).
func (s *Server) Shutdown(ctx context.Context) error {
	if s.draining.Swap(true) {
		return nil // second Shutdown: already draining
	}
	s.mu.Lock()
	ln := s.ln
	started := s.started
	// Claim the workers so a Serve racing with this Shutdown cannot
	// start them a second time.
	s.started = true
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	// Stop admission and let each worker drain its queue, final
	// checkpoint included. If Serve never ran, start the workers now
	// purely to drain: they run the same close-out path (final
	// checkpoint, detector close) over an empty queue.
	for _, t := range s.tenants {
		t.closeQueue()
	}
	if !started {
		for _, t := range s.tenants {
			t.start()
		}
	}
	var err error
	for _, t := range s.tenants {
		select {
		case <-t.done:
		case <-ctx.Done():
			err = ctx.Err()
		}
	}
	// Wake handlers blocked reading the next frame (an in-flight
	// response write still completes — the deadline only cuts reads),
	// then wait for them, forcing the remaining connections closed
	// when the context expires.
	s.mu.Lock()
	for c := range s.conns {
		c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	idle := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(idle)
	}()
	select {
	case <-idle:
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	return err
}

// handleConn serves one connection: read a frame, dispatch, reply,
// repeat — with panic containment so one poisoned connection reports
// CodeInternal and dies alone instead of taking the daemon down.
func (s *Server) handleConn(c net.Conn) {
	defer s.connWG.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
	}()
	bw := bufio.NewWriter(c)
	defer func() {
		if r := recover(); r != nil {
			s.connPanics.Add(1)
			writeFrame(bw, msgError, errFrame(CodeInternal, fmt.Sprint(r)), nil)
			bw.Flush()
		}
	}()
	br := bufio.NewReader(c)
	for {
		typ, payload, err := readFrame(br)
		if err != nil {
			// A clean disconnect, a drain-time read-deadline wakeup or
			// a closed socket is not a protocol fault; a malformed
			// frame is, and gets the typed refusal before the
			// connection dies.
			var ne net.Error
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) &&
				!(errors.As(err, &ne) && ne.Timeout()) {
				s.badFrames.Add(1)
				if errors.Is(err, ErrBadRequest) {
					writeFrame(bw, msgError, errFrame(CodeBadRequest, err.Error()), nil)
					bw.Flush()
				}
			}
			return
		}
		s.dispatch(bw, typ, payload)
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// replyErr writes an error frame.
func replyErr(w io.Writer, code uint8, msg string) {
	writeFrame(w, msgError, errFrame(code, msg), nil)
}

// dispatch decodes and serves one request frame.
func (s *Server) dispatch(w io.Writer, typ uint8, payload []byte) {
	switch typ {
	case msgPing:
		s.servePing(w)
	case msgIngest:
		s.serveIngest(w, payload)
	case msgStats:
		s.serveStats(w, payload)
	case msgSnapshot:
		s.serveWorker(w, payload, &request{kind: reqSnapshot})
	case msgCheckpoint:
		s.serveWorker(w, payload, &request{kind: reqCheckpoint})
	case msgRestore:
		s.serveRestore(w, payload)
	case msgReplicate:
		s.serveReplicate(w, payload)
	case msgPromote:
		s.Promote()
		writeFrame(w, msgOK, nil, nil)
	default:
		replyErr(w, CodeBadRequest, fmt.Sprintf("unknown message type %#x", typ))
	}
}

// servePing replies with the server's identity: role, the newest
// verified checkpoint generation across tenants, and the wire ID —
// enough for a client to find the primary and for a shipper to detect
// mis-wiring before shipping state. Pings never touch a worker queue,
// so liveness stays observable under full overload.
func (s *Server) servePing(w io.Writer) {
	var gen uint64
	for _, t := range s.tenants {
		if g := t.ckptGen.Load(); g > gen {
			gen = g
		}
	}
	p := make([]byte, 0, 10+len(s.opts.ID))
	p = append(p, uint8(s.Role()))
	p = binary.LittleEndian.AppendUint64(p, gen)
	p = append(p, uint8(len(s.opts.ID)))
	p = append(p, s.opts.ID...)
	writeFrame(w, msgOK, p, nil)
}

// serveReplicate applies one shipped snapshot generation to a standby
// tenant: name, primary incarnation, sequence number, tick, then the
// raw snapshot bytes. The role gate runs here; integrity verification
// and the regression check run on the tenant worker so they are exact.
func (s *Server) serveReplicate(w io.Writer, payload []byte) {
	b := wireBuf{data: payload}
	name := b.name()
	primary := b.name()
	seq := b.u64()
	tick := b.u64()
	if b.err != nil {
		replyErr(w, CodeBadRequest, b.err.Error())
		return
	}
	if s.Role() != RoleStandby {
		replyErr(w, CodeNotStandby, s.opts.ID)
		return
	}
	t := s.lookup(w, name)
	if t == nil {
		return
	}
	snap := append([]byte{}, b.rest()...)
	resp := s.submit(w, t, &request{kind: reqReplicate, snap: snap, replID: primary, replSeq: seq, replTick: tick})
	if resp == nil {
		return
	}
	writeFrame(w, msgOK, nil, nil)
}

// lookup resolves a tenant or replies with the typed refusal; the
// draining check runs first so a drain is reported as such even for
// unknown tenants.
func (s *Server) lookup(w io.Writer, name string) *tenant {
	if s.draining.Load() {
		replyErr(w, CodeDraining, "")
		return nil
	}
	t, ok := s.tenants[name]
	if !ok {
		replyErr(w, CodeUnknownTenant, name)
		return nil
	}
	return t
}

// submit admits a request to the tenant's queue and relays the
// worker's single response. Admission refusals (shed, draining) are
// typed and immediate — the backpressure a loaded daemon exerts
// instead of buffering without bound.
func (s *Server) submit(w io.Writer, t *tenant, req *request) *response {
	req.resp = make(chan response, 1)
	if err := t.admit(req); err != nil {
		if errors.Is(err, ErrShed) {
			replyErr(w, CodeShed, "")
		} else {
			replyErr(w, CodeDraining, "")
		}
		return nil
	}
	resp := <-req.resp
	if resp.code != 0 {
		replyErr(w, resp.code, resp.msg)
		return nil
	}
	return &resp
}

// serveIngest decodes an ingest frame, admits it, and encodes the
// verdict response.
func (s *Server) serveIngest(w io.Writer, payload []byte) {
	b := wireBuf{data: payload}
	name := b.name()
	flags := b.u8()
	deadlineMillis := b.u32()
	n := int(b.u32())
	if b.err != nil {
		replyErr(w, CodeBadRequest, b.err.Error())
		return
	}
	if s.Role() != RolePrimary {
		// A standby's detector state is owned by the replication stream;
		// letting clients ingest into it would fork the history the
		// primary ships. Typed refusal: fail over, nothing was applied.
		replyErr(w, CodeNotPrimary, s.opts.ID)
		return
	}
	t := s.lookup(w, name)
	if t == nil {
		return
	}
	if n < 1 || n > MaxBatchPoints {
		replyErr(w, CodeBadRequest, fmt.Sprintf("batch of %d points (max %d)", n, MaxBatchPoints))
		return
	}
	want := n * t.cfg.Dims
	if rem := len(payload) - b.off; rem != want*8 {
		replyErr(w, CodeBadRequest, fmt.Sprintf("batch payload holds %d bytes, want %d points x %d dims", rem, n, t.cfg.Dims))
		return
	}
	flat := make([]float64, want)
	b.f64s(flat)
	req := &request{
		kind:   reqIngest,
		flat:   flat,
		n:      n,
		scored: flags&1 != 0,
	}
	if deadlineMillis > 0 {
		budget := time.Duration(deadlineMillis) * time.Millisecond
		if budget > s.opts.MaxDeadline {
			budget = s.opts.MaxDeadline
		}
		req.deadline = time.Now().Add(budget)
	}
	resp := s.submit(w, t, req)
	if resp == nil {
		return
	}
	// Verdicts travel as a bitset; scores (when requested) follow.
	head := make([]byte, 0, 13)
	head = binary.LittleEndian.AppendUint64(head, resp.t0)
	head = binary.LittleEndian.AppendUint32(head, uint32(n))
	scored := uint8(0)
	if resp.scores != nil {
		scored = 1
	}
	head = append(head, scored)
	body := make([]byte, (n+7)/8, (n+7)/8+8*len(resp.scores))
	for i, v := range resp.verdicts {
		if v {
			body[i>>3] |= 1 << (uint(i) & 7)
		}
	}
	body = appendF64s(body, resp.scores)
	writeFrame(w, msgVerdicts, head, body)
}

// serveWorker serves the single-tenant worker requests that carry
// only a name (snapshot-out, checkpoint).
func (s *Server) serveWorker(w io.Writer, payload []byte, req *request) {
	b := wireBuf{data: payload}
	name := b.name()
	if b.err != nil {
		replyErr(w, CodeBadRequest, b.err.Error())
		return
	}
	t := s.lookup(w, name)
	if t == nil {
		return
	}
	resp := s.submit(w, t, req)
	if resp == nil {
		return
	}
	switch req.kind {
	case reqSnapshot:
		writeFrame(w, msgSnapRep, nil, resp.snap)
	default:
		writeFrame(w, msgOK, nil, []byte(resp.path))
	}
}

// serveRestore decodes a migrate-in frame: tenant name followed by the
// raw snapshot bytes, handed to the worker to swap in atomically.
func (s *Server) serveRestore(w io.Writer, payload []byte) {
	b := wireBuf{data: payload}
	name := b.name()
	if b.err != nil {
		replyErr(w, CodeBadRequest, b.err.Error())
		return
	}
	t := s.lookup(w, name)
	if t == nil {
		return
	}
	snap := append([]byte{}, b.rest()...)
	resp := s.submit(w, t, &request{kind: reqRestore, snap: snap})
	if resp == nil {
		return
	}
	writeFrame(w, msgOK, nil, nil)
}

// ReplicationStatus is the replication shipper's health as surfaced
// through the stats endpoint. The shipper (internal/replica) fills it
// via SetReplicationStatus; a server without a shipper reports a zero
// value with Active false.
type ReplicationStatus struct {
	// Active reports whether a shipper is running and currently
	// shipping (i.e. the server holds the primary role).
	Active bool
	// Interval is the configured ship cadence in milliseconds.
	IntervalMillis int64
	// Targets holds one entry per configured standby address.
	Targets []ReplTargetStatus
}

// ReplTargetStatus is one standby link's shipping health.
type ReplTargetStatus struct {
	// Addr is the standby's dial address.
	Addr string
	// GensShipped and BytesShipped are lifetime delivery counters.
	GensShipped  uint64
	BytesShipped uint64
	// ShipFailures counts failed deliveries (dial, refusal, timeout).
	ShipFailures uint64
	// Behind is the replication lag in generations: how many snapshot
	// generations the primary has cut that this standby has not acked.
	Behind uint64
	// BytesPerSec is the recent shipping throughput.
	BytesPerSec float64
	// LastError is the most recent delivery failure, empty when the
	// link is healthy.
	LastError string
}

// Status is the server-wide health snapshot the stats endpoint
// reports.
type Status struct {
	// ID and Role identify the server in a replication pair.
	ID   string
	Role string
	// Draining reports whether Shutdown has begun.
	Draining bool
	// Conns is the number of open client connections.
	Conns int
	// BadFrames and ConnPanics are lifetime counters of malformed
	// frames and contained connection-handler panics; Promotions counts
	// standby-to-primary role flips.
	BadFrames  uint64
	ConnPanics uint64
	Promotions uint64
	// Replication is the shipper's health when this server replicates
	// to standbys (zero with Active false otherwise).
	Replication ReplicationStatus
	// Tenants holds every tenant's status, keyed by name.
	Tenants map[string]TenantStatus
}

// status assembles the server-wide snapshot.
func (s *Server) status() Status {
	s.mu.Lock()
	conns := len(s.conns)
	s.mu.Unlock()
	st := Status{
		ID:         s.opts.ID,
		Role:       s.Role().String(),
		Draining:   s.draining.Load(),
		Conns:      conns,
		BadFrames:  s.badFrames.Load(),
		ConnPanics: s.connPanics.Load(),
		Promotions: s.promotions.Load(),
		Tenants:    make(map[string]TenantStatus, len(s.tenants)),
	}
	if fn := s.replStatus.Load(); fn != nil {
		st.Replication = (*fn)()
	}
	for name, t := range s.tenants {
		st.Tenants[name] = t.status()
	}
	return st
}

// serveStats replies with the JSON status: one tenant's when the
// request names one, server-wide for an empty name. Stats never pass
// through an admission queue, so health stays observable under full
// overload.
func (s *Server) serveStats(w io.Writer, payload []byte) {
	b := wireBuf{data: payload}
	nameLen := int(b.u8())
	name := string(b.take(nameLen))
	if b.err != nil {
		replyErr(w, CodeBadRequest, b.err.Error())
		return
	}
	var body []byte
	var err error
	if name == "" {
		body, err = json.Marshal(s.status())
	} else {
		t, ok := s.tenants[name]
		if !ok {
			replyErr(w, CodeUnknownTenant, name)
			return
		}
		body, err = json.Marshal(t.status())
	}
	if err != nil {
		replyErr(w, CodeInternal, err.Error())
		return
	}
	writeFrame(w, msgStatsRep, nil, body)
}
