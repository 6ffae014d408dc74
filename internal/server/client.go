package server

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// ClientOptions tunes a client connection's I/O deadlines. Zero
// values take the documented defaults; a negative value disables that
// deadline (the pre-deadline behavior: a hung server blocks forever).
type ClientOptions struct {
	// DialTimeout bounds the TCP connect. Default 10s.
	DialTimeout time.Duration
	// ReadTimeout bounds waiting for one reply frame after a request
	// was written, the hung-server guard. Snapshot transfers of large
	// tenants ride the same budget — size it for the biggest state you
	// migrate. Default 30s.
	ReadTimeout time.Duration
	// WriteTimeout bounds writing one request frame. Default 30s.
	WriteTimeout time.Duration
}

func (o *ClientOptions) defaults() {
	if o.DialTimeout == 0 {
		o.DialTimeout = 10 * time.Second
	}
	if o.ReadTimeout == 0 {
		o.ReadTimeout = 30 * time.Second
	}
	if o.WriteTimeout == 0 {
		o.WriteTimeout = 30 * time.Second
	}
}

// Client speaks the spotd wire protocol over one TCP connection.
// Requests on a single client are serialized (one in flight at a
// time); open several clients for parallelism. All methods surface
// the server's typed refusals as the package's typed errors — ErrShed
// and ErrDeadline mean nothing was applied and the call is safe to
// retry.
//
// Transport faults are terminal: after any I/O-level error (ErrTimeout
// included) the connection is closed and every subsequent call fails
// fast, because a late reply to a timed-out request would otherwise be
// mis-matched to the next one. Dial a fresh client to re-establish;
// whether the failed request was applied is unknowable at this layer —
// the replica package's failover client encodes that distinction.
type Client struct {
	opts ClientOptions

	mu     sync.Mutex
	c      net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	broken error // first transport fault; poisons all later calls
}

// Dial connects to a spotd server with default deadlines.
func Dial(addr string) (*Client, error) {
	return DialOptions(addr, ClientOptions{})
}

// DialOptions connects to a spotd server with explicit deadlines.
func DialOptions(addr string, opts ClientOptions) (*Client, error) {
	opts.defaults()
	var c net.Conn
	var err error
	if opts.DialTimeout > 0 {
		c, err = net.DialTimeout("tcp", addr, opts.DialTimeout)
	} else {
		c, err = net.Dial("tcp", addr)
	}
	if err != nil {
		return nil, wrapTimeout(err)
	}
	return &Client{opts: opts, c: c, br: bufio.NewReader(c), bw: bufio.NewWriter(c)}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.c.Close() }

// wrapTimeout folds net-level timeouts into the typed ErrTimeout so
// callers can branch without knowing net.Error.
func wrapTimeout(err error) error {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return fmt.Errorf("%w: %v", ErrTimeout, err)
	}
	return err
}

// roundTrip sends one frame and reads the reply, decoding error frames
// into typed errors. Writes and reads run under the configured
// deadlines; any transport fault closes and poisons the connection.
func (c *Client) roundTrip(typ uint8, head, body []byte) (uint8, []byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.broken != nil {
		return 0, nil, fmt.Errorf("server: connection previously failed: %w", c.broken)
	}
	fail := func(err error) (uint8, []byte, error) {
		err = wrapTimeout(err)
		c.broken = err
		c.c.Close()
		return 0, nil, err
	}
	if c.opts.WriteTimeout > 0 {
		c.c.SetWriteDeadline(time.Now().Add(c.opts.WriteTimeout))
	}
	if err := writeFrame(c.bw, typ, head, body); err != nil {
		return fail(err)
	}
	if err := c.bw.Flush(); err != nil {
		return fail(err)
	}
	if c.opts.ReadTimeout > 0 {
		c.c.SetReadDeadline(time.Now().Add(c.opts.ReadTimeout))
	}
	rtyp, payload, err := readFrame(c.br)
	if err != nil {
		return fail(err)
	}
	if rtyp == msgError {
		return 0, nil, decodeError(payload)
	}
	return rtyp, payload, nil
}

// IngestOptions tunes one Ingest call.
type IngestOptions struct {
	// Scored requests ensemble scores alongside verdicts; the tenant
	// must have Scoring configured.
	Scored bool
	// Deadline is the request's time budget: if the tenant worker has
	// not reached the batch when it expires, the server replies
	// ErrDeadline without applying anything. Zero: no deadline.
	Deadline time.Duration
}

// IngestResult is a successful batch's outcome.
type IngestResult struct {
	// T0 is the stream tick before the batch: point i of the batch is
	// stream tick T0+i+1. A client replaying after a crash compares T0
	// against the recovered tick to find where to resume.
	T0 uint64
	// Verdicts holds one projected-outlier verdict per point.
	Verdicts []bool
	// Scores holds the ensemble scores when Scored was requested, nil
	// otherwise.
	Scores []float64
}

// Ingest streams one batch of points points (len(flat) = points*dims,
// row-major) into a tenant and returns its verdicts.
func (c *Client) Ingest(tenant string, flat []float64, points int, o IngestOptions) (IngestResult, error) {
	if points < 1 || len(flat)%points != 0 {
		return IngestResult{}, fmt.Errorf("%w: %d values over %d points", ErrBadRequest, len(flat), points)
	}
	head, err := appendName(nil, tenant)
	if err != nil {
		return IngestResult{}, err
	}
	var flags uint8
	if o.Scored {
		flags |= 1
	}
	head = append(head, flags)
	head = binary.LittleEndian.AppendUint32(head, uint32(o.Deadline/time.Millisecond))
	head = binary.LittleEndian.AppendUint32(head, uint32(points))
	body := appendF64s(make([]byte, 0, 8*len(flat)), flat)
	rtyp, payload, err := c.roundTrip(msgIngest, head, body)
	if err != nil {
		return IngestResult{}, err
	}
	if rtyp != msgVerdicts {
		return IngestResult{}, fmt.Errorf("%w: unexpected reply type %#x", ErrInternal, rtyp)
	}
	b := wireBuf{data: payload}
	res := IngestResult{T0: b.u64()}
	n := int(b.u32())
	scored := b.u8()
	if b.err != nil || n != points {
		return IngestResult{}, fmt.Errorf("%w: malformed verdict frame", ErrInternal)
	}
	bits := b.take((n + 7) / 8)
	if bits == nil {
		return IngestResult{}, fmt.Errorf("%w: malformed verdict frame", ErrInternal)
	}
	res.Verdicts = make([]bool, n)
	for i := range res.Verdicts {
		res.Verdicts[i] = bits[i>>3]&(1<<(uint(i)&7)) != 0
	}
	if scored == 1 {
		res.Scores = make([]float64, n)
		b.f64s(res.Scores)
		if b.err != nil {
			return IngestResult{}, fmt.Errorf("%w: malformed score frame", ErrInternal)
		}
	}
	return res, nil
}

// PingInfo is a ping reply's server identity: who answered, in which
// replication role, and the newest verified checkpoint generation it
// holds — enough to find the primary in a failover list and to detect
// a mis-wired replication target before shipping state into it.
type PingInfo struct {
	// ID is the server's wire identity (spotd -id).
	ID string
	// Role is the server's current replication role.
	Role Role
	// Generation is the newest verified checkpoint generation across
	// the server's tenants (zero without durability).
	Generation uint64
}

// Ping checks liveness.
func (c *Client) Ping() error {
	_, err := c.PingInfo()
	return err
}

// PingInfo checks liveness and returns the server's identity, role
// and newest verified checkpoint generation.
func (c *Client) PingInfo() (PingInfo, error) {
	_, payload, err := c.roundTrip(msgPing, nil, nil)
	if err != nil {
		return PingInfo{}, err
	}
	b := wireBuf{data: payload}
	info := PingInfo{Role: Role(b.u8()), Generation: b.u64()}
	info.ID = b.name()
	if b.err != nil {
		return PingInfo{}, fmt.Errorf("%w: malformed ping reply", ErrInternal)
	}
	return info, nil
}

// Promote flips the server to the primary role — the explicit
// failover step. Idempotent on a server already primary.
func (c *Client) Promote() error {
	_, _, err := c.roundTrip(msgPromote, nil, nil)
	return err
}

// Replicate ships one snapshot generation into a standby tenant: the
// sending half of warm-standby replication. primaryID names the
// shipping primary's incarnation; seq and tick must strictly advance
// between pushes of the same incarnation or the standby refuses with
// ErrStaleGeneration (the divergence signal). A primary target refuses
// with ErrNotStandby; a corrupt snapshot with ErrBadRequest.
func (c *Client) Replicate(tenant, primaryID string, seq, tick uint64, snap []byte) error {
	head, err := appendName(nil, tenant)
	if err != nil {
		return err
	}
	if head, err = appendName(head, primaryID); err != nil {
		return err
	}
	head = binary.LittleEndian.AppendUint64(head, seq)
	head = binary.LittleEndian.AppendUint64(head, tick)
	_, _, err = c.roundTrip(msgReplicate, head, snap)
	return err
}

// TenantStats fetches one tenant's status.
func (c *Client) TenantStats(tenant string) (TenantStatus, error) {
	head, err := appendName(nil, tenant)
	if err != nil {
		return TenantStatus{}, err
	}
	_, payload, err := c.roundTrip(msgStats, head, nil)
	if err != nil {
		return TenantStatus{}, err
	}
	var ts TenantStatus
	if err := json.Unmarshal(payload, &ts); err != nil {
		return TenantStatus{}, fmt.Errorf("%w: %v", ErrInternal, err)
	}
	return ts, nil
}

// ServerStats fetches the server-wide status.
func (c *Client) ServerStats() (Status, error) {
	_, payload, err := c.roundTrip(msgStats, []byte{0}, nil)
	if err != nil {
		return Status{}, err
	}
	var st Status
	if err := json.Unmarshal(payload, &st); err != nil {
		return Status{}, fmt.Errorf("%w: %v", ErrInternal, err)
	}
	return st, nil
}

// Snapshot streams the tenant's full detector state out — the sending
// half of live migration. The snapshot is taken at a batch boundary by
// the tenant's own worker, so it is exactly the state an uninterrupted
// detector would checkpoint there.
func (c *Client) Snapshot(tenant string) ([]byte, error) {
	head, err := appendName(nil, tenant)
	if err != nil {
		return nil, err
	}
	rtyp, payload, err := c.roundTrip(msgSnapshot, head, nil)
	if err != nil {
		return nil, err
	}
	if rtyp != msgSnapRep {
		return nil, fmt.Errorf("%w: unexpected reply type %#x", ErrInternal, rtyp)
	}
	return payload, nil
}

// Restore replaces the tenant's detector state with a snapshot taken
// elsewhere — the receiving half of live migration. The tenant's
// configuration must match the snapshot (ErrConflict otherwise), and
// on success a tenant with a checkpoint directory immediately saves
// the received bytes as its newest generation.
func (c *Client) Restore(tenant string, snap []byte) error {
	head, err := appendName(nil, tenant)
	if err != nil {
		return err
	}
	_, _, err = c.roundTrip(msgRestore, head, snap)
	return err
}

// Checkpoint forces a durable checkpoint now and returns its path on
// the server.
func (c *Client) Checkpoint(tenant string) (string, error) {
	head, err := appendName(nil, tenant)
	if err != nil {
		return "", err
	}
	_, payload, err := c.roundTrip(msgCheckpoint, head, nil)
	if err != nil {
		return "", err
	}
	return string(payload), nil
}
