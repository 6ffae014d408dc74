package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"spot/internal/replica"
	"spot/internal/server"
	"spot/internal/stream"
)

// chaosProxy is a severable TCP forwarder the replication link runs
// through, so the harness can cut primary→standby shipping without
// touching either process.
type chaosProxy struct {
	ln     net.Listener
	target string

	mu      sync.Mutex
	severed bool
	conns   map[net.Conn]struct{}
}

// newChaosProxy starts a forwarder to target on an ephemeral port.
func newChaosProxy(t *testing.T, target string) *chaosProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &chaosProxy{ln: ln, target: target, conns: make(map[net.Conn]struct{})}
	go p.accept()
	t.Cleanup(func() { ln.Close() })
	return p
}

// addr returns the proxy's dial address.
func (p *chaosProxy) addr() string { return p.ln.Addr().String() }

// sever cuts the link: active connections die and new ones are refused
// until heal.
func (p *chaosProxy) sever() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.severed = true
	for c := range p.conns {
		c.Close()
	}
}

// heal restores the link.
func (p *chaosProxy) heal() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.severed = false
}

// accept forwards connections until the listener closes.
func (p *chaosProxy) accept() {
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		if p.severed {
			p.mu.Unlock()
			c.Close()
			continue
		}
		p.conns[c] = struct{}{}
		p.mu.Unlock()
		go p.forward(c)
	}
}

// forward pipes one connection both ways, tearing both sides down when
// either half dies or the link is severed.
func (p *chaosProxy) forward(c net.Conn) {
	defer func() {
		p.mu.Lock()
		delete(p.conns, c)
		p.mu.Unlock()
		c.Close()
	}()
	up, err := net.Dial("tcp", p.target)
	if err != nil {
		return
	}
	p.mu.Lock()
	if p.severed {
		p.mu.Unlock()
		up.Close()
		return
	}
	p.conns[up] = struct{}{}
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		delete(p.conns, up)
		p.mu.Unlock()
		up.Close()
	}()
	done := make(chan struct{}, 2)
	go func() { io.Copy(up, c); done <- struct{}{} }()
	go func() { io.Copy(c, up); done <- struct{}{} }()
	<-done
}

// chaosNode is one spotd process slot: a fixed listen address, a fixed
// data directory, and the proxy other nodes replicate to it through —
// all of which survive restarts so the replica set's addresses stay
// stable while processes come and go.
type chaosNode struct {
	name    string
	addr    string // fixed listen address, reused across restarts
	dataDir string
	proxy   *chaosProxy // inbound replication link
	d       *daemon
}

// chaosSpec is the tenant every chaos process serves.
const (
	chaosDims  = 3
	chaosBatch = 32
	chaosSpec  = "chaos:dims=3,warmup=0"
)

// startChaosNode (re)starts a node's process on its fixed address,
// shipping to peer's proxy when promoted to primary.
func startChaosNode(t *testing.T, n *chaosNode, peer *chaosNode, standby bool) {
	t.Helper()
	bin := spotdBinary(t)
	addrFile := filepath.Join(t.TempDir(), "addr")
	args := []string{
		"-listen", n.addr,
		"-addr-file", addrFile,
		"-data", n.dataDir,
		"-tenant", chaosSpec,
		"-id", n.name,
		"-checkpoint-points", fmt.Sprint(chaosBatch),
		"-replicate-to", peer.proxy.addr(),
		"-replicate-interval", "25ms",
		"-replicate-fault-every", "3",
	}
	if standby {
		args = append(args, "-standby")
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		if raw, err := os.ReadFile(addrFile); err == nil && len(raw) > 0 {
			n.addr = string(raw)
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("node %s never wrote its address file", n.name)
		}
		time.Sleep(10 * time.Millisecond)
	}
	n.d = &daemon{cmd: cmd, addr: n.addr}
	t.Cleanup(func() {
		if n.d.cmd.ProcessState == nil {
			n.d.cmd.Process.Kill()
			n.d.cmd.Wait()
		}
	})
}

// killNode SIGKILLs a node's process: no drain, no final checkpoint.
func killNode(t *testing.T, n *chaosNode) {
	t.Helper()
	if err := n.d.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	n.d.cmd.Wait()
}

// promoteNode flips a node to primary over the wire, retrying while
// the process finishes coming up.
func promoteNode(t *testing.T, n *chaosNode) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		c, err := server.DialOptions(n.addr, server.ClientOptions{DialTimeout: time.Second, ReadTimeout: 2 * time.Second})
		if err == nil {
			err = c.Promote()
			c.Close()
			if err == nil {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("promoting %s: %v", n.name, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// logReplication surfaces the primary's replication health — lag in
// generations, shipping throughput — into the test log.
func logReplication(t *testing.T, n *chaosNode) {
	c, err := server.DialOptions(n.addr, server.ClientOptions{DialTimeout: time.Second, ReadTimeout: 2 * time.Second})
	if err != nil {
		return
	}
	defer c.Close()
	st, err := c.ServerStats()
	if err != nil {
		return
	}
	for _, tg := range st.Replication.Targets {
		t.Logf("replication %s -> %s: shipped %d gens / %d bytes, behind %d, %.0f B/s, failures %d",
			st.ID, tg.Addr, tg.GensShipped, tg.BytesShipped, tg.Behind, tg.BytesPerSec, tg.ShipFailures)
	}
}

// TestChaosFailover is the chaos drill the replication layer is judged
// by: a primary+standby pair streams a labeled workload while the
// harness randomly SIGKILLs processes (promoting and restarting per
// the failover runbook), severs the replication link, and lets the
// built-in corruption injection poison every sixth push. Throughout,
// every client call must return a verdict or a typed error within its
// deadline — never hang — and every verdict the pair ever returns must
// be bit-identical to one uninterrupted oracle detector at the tick
// the server reports, with replays after failover bounded by the
// replication-lag window.
func TestChaosFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs daemon pairs under fault injection")
	}
	rounds := 20
	if s := os.Getenv("CHAOS_ROUNDS"); s != "" {
		fmt.Sscanf(s, "%d", &rounds)
	}
	const batchesPerRound = 3
	totalBatches := rounds * batchesPerRound

	// The deterministic workload and its uninterrupted oracle.
	rng := rand.New(rand.NewSource(7))
	flat := make([]float64, totalBatches*chaosBatch*chaosDims)
	for i := range flat {
		flat[i] = 0.25 + 0.5*rng.Float64()
		if i%101 == 47 {
			flat[i] = rng.Float64()
		}
	}
	cfg := stream.DefaultConfig(chaosDims)
	cfg.Warmup = 0
	det, err := stream.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]bool, totalBatches*chaosBatch)
	if _, err := det.ProcessBatchScoredErr(flat, want, nil); err != nil {
		t.Fatal(err)
	}
	det.Close()

	// Two node slots with fixed addresses; each replicates to the other
	// through a severable proxy, so whichever holds the primary role
	// ships and the other receives.
	reserve := func() string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		return addr
	}
	a := &chaosNode{name: "a", addr: reserve(), dataDir: t.TempDir()}
	b := &chaosNode{name: "b", addr: reserve(), dataDir: t.TempDir()}
	a.proxy = newChaosProxy(t, a.addr)
	b.proxy = newChaosProxy(t, b.addr)
	startChaosNode(t, a, b, false)
	startChaosNode(t, b, a, true)
	pri, sby := a, b

	fc, err := replica.NewClient(replica.Config{
		Addrs:       []string{a.addr, b.addr},
		Client:      server.ClientOptions{DialTimeout: 2 * time.Second, ReadTimeout: 5 * time.Second, WriteTimeout: 5 * time.Second},
		MaxAttempts: 10,
		BaseBackoff: 10 * time.Millisecond,
		MaxBackoff:  250 * time.Millisecond,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()

	// resync asks the serving replica where the stream stands and
	// returns the batch index to send next. The tick is always a batch
	// boundary: checkpoints, replication generations and promotions all
	// happen at batch boundaries, so a failover can rewind the stream
	// (the replication-lag window) but never tear a batch.
	resync := func() int {
		t.Helper()
		tick, err := fc.Resync("chaos")
		if err != nil {
			t.Fatalf("resync: %v", err)
		}
		if tick%chaosBatch != 0 {
			t.Fatalf("resync tick %d is not a batch boundary", tick)
		}
		return int(tick) / chaosBatch
	}

	chaos := rand.New(rand.NewSource(11))
	severed := false
	pos, maxPos := 0, 0
	for round := 0; round < rounds; round++ {
		switch action := chaos.Intn(5); action {
		case 0: // SIGKILL the primary, promote the standby, restart the corpse as standby.
			t.Logf("round %d: kill primary %s, promote %s", round, pri.name, sby.name)
			killNode(t, pri)
			promoteNode(t, sby)
			startChaosNode(t, pri, sby, true)
			pri, sby = sby, pri
			time.Sleep(50 * time.Millisecond)
		case 1: // SIGKILL the standby and restart it; the primary re-ships.
			t.Logf("round %d: kill standby %s", round, sby.name)
			killNode(t, sby)
			startChaosNode(t, sby, pri, true)
		case 2: // Sever the replication link into the standby.
			if !severed {
				t.Logf("round %d: sever replication into %s", round, sby.name)
				sby.proxy.sever()
				severed = true
			}
		case 3: // Heal the link; the primary catches the standby up.
			if severed {
				t.Logf("round %d: heal replication into %s", round, sby.name)
				sby.proxy.heal()
				severed = false
			}
		default:
			// Calm round: stream undisturbed.
		}

		for sent := 0; sent < batchesPerRound; {
			if pos >= totalBatches {
				break
			}
			start := time.Now()
			res, err := fc.Ingest("chaos", flat[pos*chaosBatch*chaosDims:(pos+1)*chaosBatch*chaosDims], chaosBatch, server.IngestOptions{})
			if elapsed := time.Since(start); elapsed > 90*time.Second {
				t.Fatalf("ingest call blocked %v — the no-hang contract is broken", elapsed)
			}
			switch {
			case err == nil:
				if res.T0 != uint64(pos*chaosBatch) {
					t.Fatalf("batch %d: T0 %d, want %d", pos, res.T0, pos*chaosBatch)
				}
				for j, v := range res.Verdicts {
					if v != want[pos*chaosBatch+j] {
						t.Fatalf("batch %d point %d diverged from the uninterrupted oracle", pos, j)
					}
				}
				pos++
				sent++
				if pos > maxPos {
					maxPos = pos
					// Pace fresh ground so the 25ms ship cadence gets to
					// interleave pushes with the stream; replayed batches
					// run unpaced (they only re-cover verified ground).
					time.Sleep(15 * time.Millisecond)
				}
			case errors.Is(err, replica.ErrPossiblyApplied):
				// The ambiguous case: resolve against the server's tick
				// and replay deterministically from there. The rewind is
				// bounded by the replication-lag window.
				next := resync()
				t.Logf("round %d: ambiguous batch %d, resynced to %d", round, pos, next)
				pos = next
			case strings.Contains(err.Error(), "attempts exhausted"):
				// Every candidate refused or was unreachable for the
				// whole retry budget (e.g. mid-failover). Typed, not a
				// hang; re-aim and continue.
				next := resync()
				t.Logf("round %d: attempts exhausted at batch %d (%v), resynced to %d", round, pos, err, next)
				pos = next
			default:
				t.Fatalf("batch %d: unexpected error class: %v", pos, err)
			}
		}
	}
	if severed {
		sby.proxy.heal()
	}

	// Drain the tail so the full labeled stream was verified at least
	// once, then surface the replication health into the log.
	for pos < totalBatches {
		res, err := fc.Ingest("chaos", flat[pos*chaosBatch*chaosDims:(pos+1)*chaosBatch*chaosDims], chaosBatch, server.IngestOptions{})
		if err != nil {
			if errors.Is(err, replica.ErrPossiblyApplied) || strings.Contains(err.Error(), "attempts exhausted") {
				pos = resync()
				continue
			}
			t.Fatalf("tail batch %d: %v", pos, err)
		}
		for j, v := range res.Verdicts {
			if v != want[pos*chaosBatch+j] {
				t.Fatalf("tail batch %d point %d diverged from the uninterrupted oracle", pos, j)
			}
		}
		pos++
	}
	logReplication(t, pri)

	// The divergence guard held: no standby ever accepted a generation
	// older than one it held from the same incarnation (stale pushes are
	// counted and refused, the detector state stays monotonic within an
	// incarnation). Corruption injection must have actually exercised
	// the verification path on at least one node.
	var corrupt uint64
	for _, n := range []*chaosNode{pri, sby} {
		c, err := server.DialOptions(n.addr, server.ClientOptions{DialTimeout: 2 * time.Second, ReadTimeout: 5 * time.Second})
		if err != nil {
			t.Fatalf("dial %s for final stats: %v", n.name, err)
		}
		ts, err := c.TenantStats("chaos")
		c.Close()
		if err != nil {
			t.Fatalf("final stats from %s: %v", n.name, err)
		}
		t.Logf("node %s: tick %d, repl accepted %d stale %d corrupt %d (last %s/%d)",
			n.name, ts.Tick, ts.ReplAccepted, ts.ReplStale, ts.ReplCorrupt, ts.ReplPrimary, ts.ReplSeq)
		corrupt += ts.ReplCorrupt
	}
	if corrupt == 0 {
		t.Error("corruption injection never reached a standby — the chaos run exercised nothing")
	}
}
