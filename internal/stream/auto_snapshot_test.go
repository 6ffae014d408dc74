package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"testing"

	"spot/internal/snapshot"
)

// autoSnapConfig is the fixture of the auto-threshold snapshot tests:
// the auto_test.go template at a chosen shard count.
func autoSnapConfig(shards int) Config {
	cfg := autoTestConfig(0.01)
	cfg.Shards = shards
	return cfg
}

// TestRestoreAutoEquivalence extends the crash-safety property to
// auto-thresholding: kill a calibrating detector mid-epoch — with
// partially filled sample-slot buffers and live calibrator fits —
// restore it, and the continuation must be verdict-bit-identical to the
// uninterrupted oracle, including across shard-count changes (the
// serialized slot minima are cross-shard merges, so they re-deal
// freely). Same-count round trips must also be byte-stable.
func TestRestoreAutoEquivalence(t *testing.T) {
	const n = 6*512 + 300 // ends mid-epoch
	const killAt = 2*512 + 137
	d := 6
	flat := make([]float64, n*d)
	uniformStream(61, d)(flat)
	point := func(i int) []float64 { return flat[i*d : (i+1)*d] }

	oracleRun := func(shards int) ([]bool, Stats) {
		det, err := New(autoSnapConfig(shards))
		if err != nil {
			t.Fatal(err)
		}
		defer det.Close()
		out := make([]bool, n)
		for i := 0; i < n; i++ {
			out[i] = processPoint(t, det, point(i))
		}
		return out, det.Stats()
	}

	for _, counts := range [][2]int{{1, 1}, {1, 4}, {4, 1}} {
		from, to := counts[0], counts[1]
		oracleV, oracleS := oracleRun(to)

		det, err := New(autoSnapConfig(from))
		if err != nil {
			t.Fatal(err)
		}
		got := make([]bool, n)
		for i := 0; i < killAt; i++ {
			got[i] = processPoint(t, det, point(i))
		}
		var buf bytes.Buffer
		if err := det.Snapshot(&buf); err != nil {
			t.Fatalf("%d->%d shards: snapshot: %v", from, to, err)
		}
		det.Close() // the crash

		restored, err := Restore(bytes.NewReader(buf.Bytes()), autoSnapConfig(to))
		if err != nil {
			t.Fatalf("%d->%d shards: restore: %v", from, to, err)
		}
		for i := killAt; i < n; i++ {
			got[i] = processPoint(t, restored, point(i))
		}
		for i := range oracleV {
			if got[i] != oracleV[i] {
				t.Fatalf("%d->%d shards: verdict for point %d differs after restore", from, to, i)
			}
		}
		s := restored.Stats()
		if s.Calibrations != oracleS.Calibrations || s.CalibrationSamples != oracleS.CalibrationSamples ||
			s.CalibratedThresholds != oracleS.CalibratedThresholds || s.AutoEffTrials != oracleS.AutoEffTrials {
			t.Fatalf("%d->%d shards: auto stats diverged after restore:\n restored %+v\n oracle   %+v", from, to, s, oracleS)
		}
		restored.Close()

		if from == to {
			restored2, err := Restore(bytes.NewReader(buf.Bytes()), autoSnapConfig(to))
			if err != nil {
				t.Fatal(err)
			}
			var again bytes.Buffer
			if err := restored2.Snapshot(&again); err != nil {
				t.Fatal(err)
			}
			restored2.Close()
			if !bytes.Equal(buf.Bytes(), again.Bytes()) {
				t.Fatalf("auto snapshot not byte-stable: %d vs %d bytes", buf.Len(), again.Len())
			}
		}
	}
}

// autoSnapshotBytes feeds a short calibrating run and returns its
// snapshot, shared by the mismatch/corruption tests below.
func autoSnapshotBytes(t *testing.T, cfg Config, points int) []byte {
	t.Helper()
	det, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer det.Close()
	buf := make([]float64, cfg.Dims)
	next := uniformStream(67, cfg.Dims)
	for i := 0; i < points; i++ {
		next(buf)
		processPoint(t, det, buf)
	}
	var out bytes.Buffer
	if err := det.Snapshot(&out); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestRestoreAutoConfigMismatch: the auto-threshold knobs are
// state-shaping — a snapshot may not silently restore into a detector
// whose calibration target differs.
func TestRestoreAutoConfigMismatch(t *testing.T) {
	raw := autoSnapshotBytes(t, autoSnapConfig(2), 3*512)
	mutations := map[string]func(*Config){
		"auto off":      func(c *Config) { c.AutoThreshold = AutoThreshold{} },
		"risk changed":  func(c *Config) { c.AutoThreshold.Risk *= 2 },
		"level changed": func(c *Config) { c.AutoThreshold.Level = 0.2 },
	}
	for name, mutate := range mutations {
		cfg := autoSnapConfig(2)
		mutate(&cfg)
		if _, err := Restore(bytes.NewReader(raw), cfg); !errors.Is(err, ErrConfigMismatch) {
			t.Errorf("%s: got %v, want ErrConfigMismatch", name, err)
		}
	}
	// The reverse direction: an auto-off snapshot cannot restore into an
	// auto-on detector.
	off := autoSnapConfig(2)
	off.AutoThreshold = AutoThreshold{}
	plain := autoSnapshotBytes(t, off, 512)
	if _, err := Restore(bytes.NewReader(plain), autoSnapConfig(2)); !errors.Is(err, ErrConfigMismatch) {
		t.Errorf("auto on over plain snapshot: got %v, want ErrConfigMismatch", err)
	}
}

// TestSnapshotVersionSkew: a snapshot stamped with any other format
// version — older (the pre-auto v2 layout, the v3 layout with base-cell
// moments) or newer — is rejected with ErrVersion before any section
// is decoded.
func TestSnapshotVersionSkew(t *testing.T) {
	raw := autoSnapshotBytes(t, autoSnapConfig(1), 512)
	for _, v := range []uint32{1, 2, 3, snapshot.Version + 1} {
		skewed := append([]byte(nil), raw...)
		binary.LittleEndian.PutUint32(skewed[len(snapshot.Magic):], v)
		if _, err := Restore(bytes.NewReader(skewed), autoSnapConfig(1)); !errors.Is(err, snapshot.ErrVersion) {
			t.Errorf("version %d: got %v, want ErrVersion", v, err)
		}
	}
}

// patchSection returns a copy of raw whose first section carrying id
// has its payload replaced by patch's result (patch may edit the copy
// it is given in place and return it, or return a payload of another
// size), with the section's size and CRC recomputed — so the
// corruption reaches semantic validation instead of dying at the
// checksum gate.
func patchSection(t *testing.T, raw []byte, id uint32, patch func(payload []byte) []byte) []byte {
	t.Helper()
	off := len(snapshot.Magic) + 4
	for off+12 <= len(raw) {
		sid := binary.LittleEndian.Uint32(raw[off:])
		size := int(binary.LittleEndian.Uint64(raw[off+4:]))
		if sid == id {
			payload := patch(append([]byte(nil), raw[off+12:off+12+size]...))
			out := append([]byte(nil), raw[:off+4]...)
			out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
			out = append(out, payload...)
			crc := crc32.NewIEEE()
			crc.Write(out[off:])
			out = binary.LittleEndian.AppendUint32(out, crc.Sum32())
			return append(out, raw[off+12+size+4:]...)
		}
		off += 12 + size + 4
	}
	t.Fatalf("section %d not found in %d snapshot bytes", id, len(raw))
	return nil
}

// TestRestoreBaseCellsWithoutEvolver: a detector without an evolver
// keeps no base-cell table, so its snapshots carry an empty base
// section. A base section that holds a cell anyway, CRC intact, must
// fail the restore with ErrCorrupt instead of reaching a table that
// does not exist.
func TestRestoreBaseCellsWithoutEvolver(t *testing.T) {
	cfg := autoSnapConfig(1)
	raw := autoSnapshotBytes(t, cfg, 512)
	bad := patchSection(t, raw, secBase, func(p []byte) []byte {
		if len(p) != 4 || binary.LittleEndian.Uint32(p) != 0 {
			t.Fatalf("evolver-less base section is %d bytes, want a zero count", len(p))
		}
		p = binary.LittleEndian.AppendUint32(p[:0], 1)            // one cell
		p = binary.LittleEndian.AppendUint32(p, uint32(cfg.Dims)) // key length
		p = append(p, make([]byte, cfg.Dims)...)                  // key: interval 0 everywhere
		p = binary.LittleEndian.AppendUint64(p, math.Float64bits(1))
		return binary.LittleEndian.AppendUint64(p, 512) // Last
	})
	if _, err := Restore(bytes.NewReader(bad), cfg); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("base cell in an evolver-less snapshot: got %v, want ErrCorrupt", err)
	}
}

// TestRestoreAutoCorrupt: secAuto contents that pass the CRC but fail
// semantic validation — an effective-trials divisor outside the
// controller's bounds, or a NaN where a finite scalar belongs — must
// surface as ErrCorrupt, never as a silently mis-calibrated detector.
func TestRestoreAutoCorrupt(t *testing.T) {
	const secAutoID = 9
	raw := autoSnapshotBytes(t, autoSnapConfig(1), 3*512)
	cases := map[string]uint64{
		"effTrials out of range": math.Float64bits(1e9),
		"effTrials NaN":          math.Float64bits(math.NaN()),
		"effTrials negative":     math.Float64bits(-1),
	}
	for name, bits := range cases {
		bad := patchSection(t, raw, secAutoID, func(p []byte) []byte {
			binary.LittleEndian.PutUint64(p[0:], bits) // first field: effTrials
			return p
		})
		if _, err := Restore(bytes.NewReader(bad), autoSnapConfig(1)); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
	// A NaN smuggled into the rolling sample windows (the tail of the
	// section) must be caught too: poison the last float in the payload.
	bad := patchSection(t, raw, secAutoID, func(p []byte) []byte {
		binary.LittleEndian.PutUint64(p[len(p)-8:], math.Float64bits(math.NaN()))
		return p
	})
	if _, err := Restore(bytes.NewReader(bad), autoSnapConfig(1)); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Errorf("NaN tail sample: got %v, want ErrCorrupt", err)
	}
	// Bit flips over the auto section still die at the checksum gate.
	for off := 0; off < len(raw); off += 1 + len(raw)/53 {
		flipped := append([]byte(nil), raw...)
		flipped[off] ^= 1 << uint(off%8)
		_, err := Restore(bytes.NewReader(flipped), autoSnapConfig(1))
		if err == nil ||
			!(errors.Is(err, snapshot.ErrBadMagic) || errors.Is(err, snapshot.ErrVersion) ||
				errors.Is(err, snapshot.ErrChecksum) || errors.Is(err, snapshot.ErrTruncated) ||
				errors.Is(err, snapshot.ErrCorrupt) || errors.Is(err, ErrConfigMismatch)) {
			t.Errorf("bitflip@%d: got %v, want a typed snapshot error", off, err)
		}
	}
}
