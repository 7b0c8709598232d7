package stack

import "repro/internal/ethaddr"

// ipIndex maps IPv4 addresses to positions in a dense slice the caller
// owns. It is a small open-addressing table: a power-of-two cell array, a
// fixed multiplicative hash, linear probing, and backward-shift deletion (no
// tombstones), kept at most half full. Everything about it is deterministic,
// and it never decides iteration order — the caller's slice does.
//
// The per-packet lookups it serves (the cache binding, the resolver's
// solicited check) run once per host per broadcast frame, so each is one
// probe. Keys may be attacker-chosen (replayed captures); even if every key
// lands on one home cell, a probe compares no more keys than a linear scan
// of the slice would.
type ipIndex struct {
	cells []ipCell
	shift uint8 // 32 - log2(len(cells)): the hash keeps the top bits
	n     int
}

// ipCell is one table slot. pos is the slice position plus one, so the zero
// cell is empty and a fresh or cleared table needs no initialisation pass.
type ipCell struct {
	key uint32
	pos int32
}

// ipHashMul is the 32-bit Fibonacci hashing multiplier (2^32/φ, odd).
const ipHashMul = 0x9E3779B9

// init sizes the table for n keys without growth.
func (x *ipIndex) init(n int) {
	size, shift := 8, uint8(29)
	for size < 2*n {
		size <<= 1
		shift--
	}
	x.cells = make([]ipCell, size)
	x.shift = shift
	x.n = 0
}

// home returns k's home cell.
func (x *ipIndex) home(k uint32) int {
	return int((k * ipHashMul) >> x.shift)
}

// find returns the cell holding k, or the empty cell ending its probe
// sequence.
func (x *ipIndex) find(k uint32) int {
	mask := len(x.cells) - 1
	i := x.home(k)
	for {
		c := &x.cells[i]
		if c.pos == 0 || c.key == k {
			return i
		}
		i = (i + 1) & mask
	}
}

// get returns the position stored for ip, or -1 when absent.
func (x *ipIndex) get(ip ethaddr.IPv4) int {
	return int(x.cells[x.find(ip.Uint32())].pos) - 1
}

// set stores pos under ip, inserting the key when absent.
func (x *ipIndex) set(ip ethaddr.IPv4, pos int) {
	k := ip.Uint32()
	i := x.find(k)
	if x.cells[i].pos == 0 {
		if 2*(x.n+1) > len(x.cells) {
			x.grow()
			i = x.find(k)
		}
		x.n++
	}
	x.cells[i] = ipCell{key: k, pos: int32(pos + 1)}
}

// del removes ip and returns the position it held, or -1 when absent.
// Later cells of its cluster shift back into the gap so every remaining
// key stays reachable from its home cell.
func (x *ipIndex) del(ip ethaddr.IPv4) int {
	i := x.find(ip.Uint32())
	pos := int(x.cells[i].pos) - 1
	if pos < 0 {
		return -1
	}
	x.n--
	mask := len(x.cells) - 1
	for j := (i + 1) & mask; x.cells[j].pos != 0; j = (j + 1) & mask {
		// The key at j may fill the gap at i unless its home lies
		// cyclically in (i, j]: then moving it before its home would
		// strand it.
		if (j-x.home(x.cells[j].key))&mask >= (j-i)&mask {
			x.cells[i] = x.cells[j]
			i = j
		}
	}
	x.cells[i] = ipCell{}
	return pos
}

// clear empties the table, keeping its size.
func (x *ipIndex) clear() {
	clear(x.cells)
	x.n = 0
}

// grow doubles the table and reinserts every key.
func (x *ipIndex) grow() {
	old := x.cells
	x.cells = make([]ipCell, 2*len(old))
	x.shift--
	mask := len(x.cells) - 1
	for _, c := range old {
		if c.pos == 0 {
			continue
		}
		i := x.home(c.key)
		for x.cells[i].pos != 0 {
			i = (i + 1) & mask
		}
		x.cells[i] = c
	}
}
