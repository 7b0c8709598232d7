// Package denseidx is the repository's one hash index: it maps uint64 keys
// to positions in a dense slice the caller owns. The ARP cache, the
// resolver, a router interface's tables and arpwatch's pairing database
// key it by IPv4 address; the switch CAM keys it by (VLAN, MAC).
//
// It is a small open-addressing table: a power-of-two cell array, a fixed
// Fibonacci hash keeping the product's top bits, linear probing, and
// backward-shift deletion (no tombstones), kept at most half full.
// Everything about it is deterministic, and it never decides iteration
// order — the caller's slice does, so a caller that iterates its slice
// (CAM eviction, cache Flush) behaves identically in every process.
//
// The lookups it serves run once per frame per switch or per host, so each
// is one probe. Keys may be attacker-chosen (replayed captures, flooded
// MACs); even if every key lands on one home cell, a probe compares no more
// keys than a linear scan of the slice would.
package denseidx

// Index maps keys to slice positions. The zero Index is not usable; call
// Init first.
type Index struct {
	cells []cell
	shift uint8 // 64 - log2(len(cells)): the hash keeps the top bits
	n     int
}

// cell is one table slot. pos is the slice position plus one, so the zero
// cell is empty and a fresh or cleared table needs no initialisation pass.
type cell struct {
	key uint64
	pos int32
}

// hashMul is the 64-bit Fibonacci hashing multiplier (2^64/φ, odd).
const hashMul = 0x9E3779B97F4A7C15

// Init sizes the table for n keys without growth, discarding any contents.
func (x *Index) Init(n int) {
	size, shift := 8, uint8(61)
	for size < 2*n {
		size <<= 1
		shift--
	}
	x.cells = make([]cell, size)
	x.shift = shift
	x.n = 0
}

// Len returns the number of keys stored.
func (x *Index) Len() int { return x.n }

// home returns k's home cell.
func (x *Index) home(k uint64) int {
	return int((k * hashMul) >> x.shift)
}

// find returns the cell holding k, or the empty cell ending its probe
// sequence.
func (x *Index) find(k uint64) int {
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

// Get returns the position stored for k, or -1 when absent.
func (x *Index) Get(k uint64) int {
	return int(x.cells[x.find(k)].pos) - 1
}

// Set stores pos under k, inserting the key when absent.
func (x *Index) Set(k uint64, pos int) {
	i := x.find(k)
	if x.cells[i].pos == 0 {
		if 2*(x.n+1) > len(x.cells) {
			x.grow()
			i = x.find(k)
		}
		x.n++
	}
	x.cells[i] = cell{key: k, pos: int32(pos + 1)}
}

// Del removes k and returns the position it held, or -1 when absent. Later
// cells of its cluster shift back into the gap so every remaining key stays
// reachable from its home cell.
func (x *Index) Del(k uint64) int {
	i := x.find(k)
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
	x.cells[i] = cell{}
	return pos
}

// Clear empties the table, keeping its size.
func (x *Index) Clear() {
	clear(x.cells)
	x.n = 0
}

// grow doubles the table and reinserts every key.
func (x *Index) grow() {
	old := x.cells
	x.cells = make([]cell, 2*len(old))
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

// Colliding returns the first n keys below 2^32 whose hash has the top 12
// bits 0xABC, so they share one home cell in every table of up to 4096
// cells. Tests of the index and of its callers use them to crowd a single
// probe cluster: wrap-around, long probes, and backward-shift deletion.
func Colliding(n int) []uint64 {
	out := make([]uint64, 0, n)
	for k := uint64(1); len(out) < n; k++ {
		if (k*hashMul)>>52 == 0xABC {
			out = append(out, k)
		}
	}
	return out
}
