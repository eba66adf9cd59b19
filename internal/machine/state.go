package machine

import "fmt"

// Thread execution status.
const (
	statusIdle int32 = iota
	statusRunning
	statusReturning
)

// thread is the per-thread part of an exploration state.
type thread struct {
	status int32
	method int32
	arg    int32
	pc     int32
	ret    int32
	ops    int32
	locals []int32
}

// state is one global state of the object system: shared state plus all
// thread states.
type state struct {
	g  *Global
	th []thread
}

func (s *state) clone() *state {
	ns := &state{g: s.g.Clone(), th: make([]thread, len(s.th))}
	for i, t := range s.th {
		nt := t
		nt.locals = make([]int32, len(t.locals))
		copy(nt.locals, t.locals)
		ns.th[i] = nt
	}
	return ns
}

// copyInto overwrites dst with src without allocating; both states must
// have the same shape (same program, same thread count).
func (s *state) copyInto(dst *state) {
	copy(dst.g.Vars, s.g.Vars)
	copy(dst.g.Heap, s.g.Heap)
	for i := range s.th {
		locals := dst.th[i].locals
		copy(locals, s.th[i].locals)
		dst.th[i] = s.th[i]
		dst.th[i].locals = locals
	}
}

// canonicalizer renames reachable heap cells into a dense prefix in
// deterministic traversal order and drops unreachable cells. Buffers are
// reused across calls.
type canonicalizer struct {
	prog    *Program
	old2new []int32
	order   []int32 // old indices in assignment order
	newHeap []Node
	// live is one past the last cell the latest run kept: every cell at
	// or above it is empty, which bounds the codec's watermark search.
	live int
}

func newCanonicalizer(p *Program, heapLen int) *canonicalizer {
	return &canonicalizer{
		prog:    p,
		old2new: make([]int32, heapLen),
		newHeap: make([]Node, heapLen),
	}
}

// run canonicalizes st in place.
func (c *canonicalizer) run(st *state) {
	g := st.g
	for i := range c.old2new {
		c.old2new[i] = 0
	}
	c.order = c.order[:0]
	next := int32(1)
	visit := func(p int32) int32 {
		if p <= 0 {
			return 0
		}
		if n := c.old2new[p]; n != 0 {
			return n
		}
		c.old2new[p] = next
		c.order = append(c.order, p)
		next++
		return next - 1
	}
	remapVar := func(kind VarKind, v int32) int32 {
		switch kind {
		case KPtr:
			return visit(v)
		case KTagged:
			if IsRef(v) {
				return Ref(visit(Deref(v)))
			}
		}
		return v
	}
	// Roots: globals, then each thread's locals, in declaration order.
	for i, kind := range c.prog.Globals.Kinds {
		g.Vars[i] = remapVar(kind, g.Vars[i])
	}
	for ti := range st.th {
		th := &st.th[ti]
		for li := range th.locals {
			th.locals[li] = remapVar(c.prog.localKind(li), th.locals[li])
		}
	}
	// Breadth-first over pointer fields; c.order grows as we go.
	for qi := 0; qi < len(c.order); qi++ {
		old := c.order[qi]
		n := g.Heap[old]
		n.Next = visit(n.Next)
		n.A = visit(n.A)
		n.B = visit(n.B)
		c.newHeap[c.old2new[old]] = n
	}
	live := int(next)
	c.live = live
	for i := live; i < len(c.newHeap); i++ {
		c.newHeap[i] = Node{}
	}
	c.newHeap[0] = Node{}
	// Swap heaps; the old backing array becomes the next scratch buffer.
	g.Heap, c.newHeap = c.newHeap[:len(g.Heap)], g.Heap
}

// Encoding: one byte per field with a +64 bias, so any field value in
// [EncodeMin, EncodeMax] round-trips. Exploration states of the bounded
// instances in this library stay far inside that range; the helper panics
// otherwise to catch mis-sized models immediately.
const encBias = 64

// EncodeMin and EncodeMax bound the field values the state encoder can
// represent. A program whose statements can store values outside this
// range corrupts its state encoding at exploration time; the vet
// domain-overflow analyzer warns about such statements statically.
const (
	EncodeMin = -encBias
	EncodeMax = 255 - encBias
)

func encByte(buf []byte, v int32) []byte {
	b := v + encBias
	if b < 0 || b > 255 {
		panic(fmt.Sprintf("machine: field value %d outside encodable range", v))
	}
	return append(buf, byte(b))
}

func decByte(buf []byte, i *int) int32 {
	v := int32(buf[*i]) - encBias
	*i++
	return v
}

// encode serializes a canonicalized state. The heap is written up to its
// highest live-or-referenced cell; canonicalization guarantees those form
// a dense prefix.
func encode(buf []byte, st *state) []byte {
	g := st.g
	for _, v := range g.Vars {
		buf = encByte(buf, v)
	}
	hw := 0
	for i := len(g.Heap) - 1; i >= 1; i-- {
		if g.Heap[i] != (Node{}) {
			hw = i
			break
		}
	}
	buf = encByte(buf, int32(hw))
	for i := 1; i <= hw; i++ {
		n := &g.Heap[i]
		buf = encByte(buf, n.Kind)
		buf = encByte(buf, n.Val)
		buf = encByte(buf, n.Key)
		buf = encByte(buf, n.Next)
		buf = encByte(buf, n.A)
		buf = encByte(buf, n.B)
		buf = encByte(buf, n.C)
		buf = encByte(buf, n.D)
		m := int32(0)
		if n.Mark {
			m = 1
		}
		buf = encByte(buf, m)
		buf = encByte(buf, n.Lock)
	}
	for ti := range st.th {
		th := &st.th[ti]
		buf = encByte(buf, th.status)
		buf = encByte(buf, th.method)
		buf = encByte(buf, th.arg)
		buf = encByte(buf, th.pc)
		buf = encByte(buf, th.ret)
		buf = encByte(buf, th.ops)
		for _, l := range th.locals {
			buf = encByte(buf, l)
		}
	}
	return buf
}

// decode reconstructs a state into st, which must be shaped for the
// program (vector lengths allocated).
func decode(buf []byte, st *state) {
	i := 0
	g := st.g
	for vi := range g.Vars {
		g.Vars[vi] = decByte(buf, &i)
	}
	hw := int(decByte(buf, &i))
	for hi := 1; hi <= hw; hi++ {
		n := &g.Heap[hi]
		n.Kind = decByte(buf, &i)
		n.Val = decByte(buf, &i)
		n.Key = decByte(buf, &i)
		n.Next = decByte(buf, &i)
		n.A = decByte(buf, &i)
		n.B = decByte(buf, &i)
		n.C = decByte(buf, &i)
		n.D = decByte(buf, &i)
		n.Mark = decByte(buf, &i) != 0
		n.Lock = decByte(buf, &i)
	}
	for hi := hw + 1; hi < len(g.Heap); hi++ {
		g.Heap[hi] = Node{}
	}
	for ti := range st.th {
		th := &st.th[ti]
		th.status = decByte(buf, &i)
		th.method = decByte(buf, &i)
		th.arg = decByte(buf, &i)
		th.pc = decByte(buf, &i)
		th.ret = decByte(buf, &i)
		th.ops = decByte(buf, &i)
		for li := range th.locals {
			th.locals[li] = decByte(buf, &i)
		}
	}
}
