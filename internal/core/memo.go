package core

// memoTable memoizes DP entries under a flat, index-encoded key: a node
// is folded into a single dense integer (interval-pair index × k × l1 ×
// l2 × c2) and stored in an open-addressing table probed linearly. The
// DP visits a vanishingly small fraction of its index space (hundreds of
// states out of millions of indices on typical instances), so the table
// is sized by occupancy, not by the index space; encoding the key up
// front still buys single-word hashing and comparison instead of the
// struct hashing a map[state] key pays per lookup.
//
// A key's home slot is the top bits of its Fibonacci product, not the
// low ones. The low b bits of key·C depend only on key mod 2^b, and the
// encoding's strides are products of the instance dimensions: when one
// of them carries a large power of two (G+1 = 1024 on a dense n = 1000
// single-machine fragment, or n+1 = 1024), keys that differ only in the
// outer fields share their low bits and pile into one linear-probe run
// hundreds of slots long. The top bits mix every bit of the key.
//
// For pathologically large instances whose index space would overflow
// int64, the table degrades to a hash map keyed by the node itself.
type memoTable struct {
	// Strides of the dense encoding: index(nd) =
	// ((((i1·d1 + i2)·d2 + k)·d3 + l1)·d3 + l2)·d3 + c2.
	d1, d2, d3 int64

	slots  []slot         // open addressing, power-of-two length
	mask   uint64         // len(slots) − 1
	shift  uint           // 64 − log2(len(slots)): home keeps the top bits
	sparse map[node]entry // fallback when the index space overflows
	size   int            // number of memoized entries
}

// slot pairs an encoded key with its entry. key is the dense index
// plus one, so the zero value marks an empty slot.
type slot struct {
	key int64
	e   entry
}

const (
	// initialSlots is small: most solves memoize a few hundred states,
	// and the table doubles as needed.
	initialBits  = 10
	initialSlots = 1 << initialBits

	// maxIndexSpace guards the dense encoding against int64 overflow.
	maxIndexSpace = int64(1) << 62
)

// newMemoTable sizes the dense encoding for a (g, n, p)-shaped
// instance, falling back to the sparse map when its index space would
// overflow int64.
func newMemoTable(g, n, p int) *memoTable {
	m := &memoTable{d1: int64(g) + 1, d2: int64(n) + 1, d3: int64(p) + 1}
	space := int64(1)
	for _, dim := range [...]int64{m.d1, m.d1, m.d2, m.d3, m.d3, m.d3} {
		if space > maxIndexSpace/dim {
			m.sparse = make(map[node]entry)
			return m
		}
		space *= dim
	}
	m.slots = make([]slot, initialSlots)
	m.mask = uint64(len(m.slots)) - 1
	m.shift = 64 - initialBits
	return m
}

func (m *memoTable) entries() int { return m.size }

func (m *memoTable) index(nd node) int64 {
	return ((((int64(nd.i1)*m.d1+int64(nd.i2))*m.d2+int64(nd.k))*m.d3+
		int64(nd.l1))*m.d3+int64(nd.l2))*m.d3 + int64(nd.c2)
}

// home is key's first probe slot: Fibonacci hashing, keeping the top
// log2(len(slots)) bits of the product (see the type comment for why
// not the low ones).
func (m *memoTable) home(key int64) uint64 {
	return uint64(key) * 0x9E3779B97F4A7C15 >> m.shift
}

func (m *memoTable) get(nd node) (entry, bool) {
	if m.slots == nil {
		e, ok := m.sparse[nd]
		return e, ok
	}
	key := m.index(nd) + 1
	for i := m.home(key); ; i = (i + 1) & m.mask {
		s := &m.slots[i]
		if s.key == key {
			return s.e, true
		}
		if s.key == 0 {
			return entry{}, false
		}
	}
}

// put stores an entry, resolving rewrites of an occupied key with
// mergeEntry: branch and bound revisits a node when a caller arrives
// with a looser budget than the one its prune marker recorded, and the
// re-expansion writes either an exact entry or a stronger marker.
func (m *memoTable) put(nd node, e entry) {
	if m.slots == nil {
		if old, ok := m.sparse[nd]; ok {
			m.sparse[nd] = mergeEntry(old, e)
			return
		}
		m.size++
		m.sparse[nd] = e
		return
	}
	if 4*(m.size+1) >= 3*len(m.slots) {
		m.grow()
	}
	key := m.index(nd) + 1
	for i := m.home(key); ; i = (i + 1) & m.mask {
		s := &m.slots[i]
		if s.key == key {
			s.e = mergeEntry(s.e, e)
			return
		}
		if s.key == 0 {
			s.key = key
			s.e = e
			m.size++
			return
		}
	}
}

// mergeEntry decides a double write: an exact result always wins over a
// prune marker (and an exact rewrite is byte-identical, so the old one
// stands); between two markers the larger certified budget wins.
func mergeEntry(old, new entry) entry {
	if old.choice != choicePruned {
		return old
	}
	if new.choice != choicePruned || new.cost > old.cost {
		return new
	}
	return old
}

func (m *memoTable) insert(key int64, e entry) {
	for i := m.home(key); ; i = (i + 1) & m.mask {
		s := &m.slots[i]
		if s.key == 0 {
			s.key = key
			s.e = e
			return
		}
	}
}

func (m *memoTable) grow() {
	old := m.slots
	m.slots = make([]slot, 2*len(old))
	m.mask = uint64(len(m.slots) - 1)
	m.shift--
	for _, s := range old {
		if s.key != 0 {
			m.insert(s.key, s.e)
		}
	}
}
