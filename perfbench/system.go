package main

import (
	"context"
	"errors"
	"net"
	"path/filepath"
	"time"

	"spot/internal/replica"
	"spot/internal/server"
	"spot/internal/stream"
)

// node is one in-process spotd serving on a loopback listener.
type node struct {
	srv  *server.Server
	addr string
	done chan error
}

func startNode(opts server.Options, tenants []server.TenantConfig) (*node, error) {
	s, err := server.New(opts, tenants)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{srv: s, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { n.done <- s.Serve(ln) }()
	return n, nil
}

// stop drains the server (final checkpoints included) and waits for
// Serve to return.
func (n *node) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := n.srv.Shutdown(ctx)
	return errors.Join(err, <-n.done)
}

// serverOptions are spotd's flag defaults: queue depth 64, a checkpoint
// every 4096 points or 30 s.
func serverOptions(id string, role server.Role) server.Options {
	return server.Options{
		QueueDepth:         64,
		CheckpointPoints:   4096,
		CheckpointInterval: 30 * time.Second,
		MaxDeadline:        time.Minute,
		ID:                 id,
		Role:               role,
	}
}

// system is one started instance of a workload's system under test:
// either a spotd primary (with an optional warm standby and its
// shipper) or a bare library detector.
type system struct {
	primary, standby *node
	shipper          *replica.Shipper
	shipped          []server.ReplTargetStatus // records of shippers quiesce stopped
	clients          []*server.Client
	det              *stream.Detector
	calls            []callFn // one per stream
}

// stop releases everything start acquired, in dependency order.
func (s *system) stop() error {
	var errs []error
	if s.shipper != nil {
		s.shipper.Stop()
	}
	for _, c := range s.clients {
		c.Close()
	}
	if s.primary != nil {
		errs = append(errs, s.primary.stop())
	}
	if s.standby != nil {
		errs = append(errs, s.standby.stop())
	}
	if s.det != nil {
		s.det.Close()
	}
	return errors.Join(errs...)
}

// connect dials one client per tenant on the primary and binds each
// stream's calls to a scored Ingest on its own connection.
func (s *system) connect(names []string) error {
	for _, name := range names {
		c, err := server.Dial(s.primary.addr)
		if err != nil {
			return err
		}
		s.clients = append(s.clients, c)
		name := name
		s.calls = append(s.calls, func(flat []float64, n int) ([]bool, []float64, error) {
			r, err := c.Ingest(name, flat, n, server.IngestOptions{Scored: true})
			return r.Verdicts, r.Scores, err
		})
	}
	return nil
}

// tenantConfigs declares one checkpointed tenant per name under dir.
func tenantConfigs(names []string, cfg stream.Config, dir string) []server.TenantConfig {
	tcs := make([]server.TenantConfig, len(names))
	for i, name := range names {
		tcs[i] = server.TenantConfig{Name: name, Stream: cfg, Dir: filepath.Join(dir, name), Keep: 3}
	}
	return tcs
}

// startReplicated starts a primary and a warm standby over loopback,
// each checkpointing into its own fresh directory under dir, with the
// shipper at its default 1 s cadence, and connects the clients.
func startReplicated(names []string, cfg stream.Config, dir string) (_ *system, err error) {
	s := &system{}
	defer func() {
		if err != nil {
			s.stop()
		}
	}()
	if s.standby, err = startNode(serverOptions("standby", server.RoleStandby), tenantConfigs(names, cfg, filepath.Join(dir, "standby"))); err != nil {
		return nil, err
	}
	if s.primary, err = startNode(serverOptions("primary", server.RolePrimary), tenantConfigs(names, cfg, filepath.Join(dir, "primary"))); err != nil {
		return nil, err
	}
	if err = s.resume(); err != nil {
		return nil, err
	}
	return s, s.connect(names)
}

// resume starts replication to the standby with a new shipper
// incarnation at the default cadence.
func (s *system) resume() (err error) {
	s.shipper, err = replica.NewShipper(replica.ShipperConfig{Server: s.primary.srv, Targets: []string{s.standby.addr}})
	return err
}

// quiesce brings a daemon system to a state that depends only on the
// stream position, for the state-dependent reads. A tenant worker
// checkpoints after sending the reply that made the cadence due; a
// snapshot request queued behind it returns only once that checkpoint
// is done. With a standby, the shipper is stopped and the standby is
// synced to exactly the primary's state through the same Replicate
// call the shipper uses; resume restarts shipping.
func (s *system) quiesce(names []string) error {
	if s.primary == nil {
		return nil
	}
	var sync *server.Client
	if s.standby != nil {
		s.shipper.Stop()
		s.shipped = append(s.shipped, s.shipper.Status().Targets...)
		s.shipper = nil
		// Drop the server's reference to the stopped shipper, and with it
		// the generations it held, so that heap_mb sees only live state.
		s.primary.srv.SetReplicationStatus(func() server.ReplicationStatus { return server.ReplicationStatus{} })
		var err error
		if sync, err = server.Dial(s.standby.addr); err != nil {
			return err
		}
		defer sync.Close()
	}
	for _, name := range names {
		snap, tick, err := s.primary.srv.SnapshotTenant(name)
		if err != nil {
			return err
		}
		if sync != nil {
			if err := sync.Replicate(name, "quiesce", 1, tick, snap); err != nil {
				return err
			}
		}
	}
	return nil
}

// startRecovering starts a single primary whose tenants recover from
// the newest checkpoint under dir. A tenant that failed to recover
// would start fresh; the output check, which replays from the same
// checkpoint, then fails the run.
func startRecovering(names []string, cfg stream.Config, dir string) (_ *system, err error) {
	s := &system{}
	defer func() {
		if err != nil {
			s.stop()
		}
	}()
	if s.primary, err = startNode(serverOptions("primary", server.RolePrimary), tenantConfigs(names, cfg, dir)); err != nil {
		return nil, err
	}
	return s, s.connect(names)
}

// startLibrary builds a bare detector driven by direct calls.
func startLibrary(cfg stream.Config, batch int) (*system, error) {
	det, err := stream.New(cfg)
	if err != nil {
		return nil, err
	}
	out, sc := make([]bool, batch), make([]float64, batch)
	call := func(flat []float64, n int) ([]bool, []float64, error) {
		_, err := det.ProcessBatchScoredErr(flat, out[:n], sc[:n])
		return out[:n], sc[:n], err
	}
	return &system{det: det, calls: []callFn{call}}, nil
}

// streamStats returns every detector's stats at the current batch
// boundary: the library detector's directly, each tenant's as the
// primary last published it.
func (s *system) streamStats(names []string) ([]stream.Stats, []server.TenantStatus) {
	if s.det != nil {
		return []stream.Stats{s.det.Stats()}, nil
	}
	var sts []stream.Stats
	var tss []server.TenantStatus
	for _, name := range names {
		ts, _ := s.primary.srv.Tenant(name)
		sts = append(sts, ts.Stream)
		tss = append(tss, ts)
	}
	return sts, tss
}
