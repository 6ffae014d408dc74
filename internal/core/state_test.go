package core

import (
	"strings"
	"testing"
)

// TestPCSTableAppend: Append reproduces an exact dense layout — keys
// come back in insertion order via At, lookups see them, and a
// duplicate key (a corrupt snapshot) is rejected.
func TestPCSTableAppend(t *testing.T) {
	keys := []uint64{
		EncodeCell(3, []uint8{1, 2}),
		EncodeCell(3, []uint8{2, 2}),
		EncodeCell(7, []uint8{0, 0, 5}),
	}
	dst := NewPCSTable()
	for i, key := range keys {
		cell := PCS{Dc: float64(i) + 0.5, S: float64(2 * i), Q: float64(3 * i), Last: uint64(10 + i)}
		if err := dst.Append(key, cell); err != nil {
			t.Fatalf("append %#x: %v", key, err)
		}
	}
	if dst.Len() != len(keys) {
		t.Fatalf("Len %d, want %d", dst.Len(), len(keys))
	}
	for i, want := range keys {
		key, cell := dst.At(i)
		if key != want {
			t.Fatalf("At(%d) key %#x, want %#x — dense order not preserved", i, key, want)
		}
		if cell.Dc != float64(i)+0.5 || cell.Last != uint64(10+i) {
			t.Fatalf("At(%d) summary %+v stored wrong", i, cell)
		}
		if !dst.Contains(want) {
			t.Fatalf("Contains(%#x) false after append", want)
		}
	}
	err := dst.Append(keys[1], PCS{Dc: 1})
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate append: %v", err)
	}
	if dst.Len() != len(keys) {
		t.Fatalf("failed append changed the table: Len %d", dst.Len())
	}
}

// TestBCSTableLoadRange: Load stores summaries verbatim under
// validation, Range visits every populated cell, and malformed
// restores (wrong key width, duplicates) are rejected.
func TestBCSTableLoadRange(t *testing.T) {
	const d = 3
	tbl := NewBCSTable(d)
	cells := map[string]*BCS{
		string([]byte{0, 1, 2}): {Dc: 2.5, Last: 7},
		string([]byte{5, 5, 5}): {Dc: 0.25, Last: 9},
	}
	for key, b := range cells {
		if err := tbl.Load(key, b); err != nil {
			t.Fatalf("load %q: %v", key, err)
		}
	}
	if tbl.Len() != len(cells) {
		t.Fatalf("Len %d, want %d", tbl.Len(), len(cells))
	}
	seen := 0
	tbl.Range(func(key string, b *BCS) {
		seen++
		want, ok := cells[key]
		if !ok {
			t.Fatalf("Range visited unknown key %q", key)
		}
		if *b != *want {
			t.Fatalf("Range %q summary %+v, want %+v", key, b, want)
		}
	})
	if seen != len(cells) {
		t.Fatalf("Range visited %d cells, want %d", seen, len(cells))
	}

	bad := []struct {
		name string
		key  string
		b    *BCS
		want string
	}{
		{"short key", string([]byte{0, 1}), &BCS{}, "key of 2 bytes"},
		{"long key", string([]byte{0, 1, 2, 3}), &BCS{}, "key of 4 bytes"},
		{"duplicate", string([]byte{0, 1, 2}), &BCS{}, "duplicate"},
	}
	for _, tc := range bad {
		err := tbl.Load(tc.key, tc.b)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want mention of %q", tc.name, err, tc.want)
		}
	}
	if tbl.Len() != len(cells) {
		t.Fatalf("failed loads changed the table: Len %d", tbl.Len())
	}
}
