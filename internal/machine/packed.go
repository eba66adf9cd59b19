package machine

import (
	"fmt"
	"slices"

	"repro/internal/statecodec"
)

// Encoding values for Options.Encoding.
const (
	// EncodingAuto picks the packed codec with the best available layout:
	// Options.Layout when one was supplied (vet interval narrowing),
	// otherwise the structural layout derived from the program shape.
	EncodingAuto = ""
	// EncodingPacked is EncodingAuto spelled explicitly.
	EncodingPacked = "packed"
	// EncodingLegacy forces the original one-byte-per-slot encoding.
	EncodingLegacy = "legacy"
)

// StructuralLayout derives a packed state layout for p from program
// structure alone, with no dataflow information:
//
//   - pointer slots (KPtr variables and locals, the Next/A/B node
//     fields, the heap watermark) are bounded by [0, HeapCap] — the
//     canonicalizer renames every live cell into that range;
//   - thread bookkeeping is bounded by its mechanics: status by the
//     three status codes, method by the method count, pc by the longest
//     body, ops by the operation budget, arg by the declared argument
//     domains, lock owners by the thread count, mark bits by one bit;
//   - every other value slot falls back to the legacy byte window
//     [EncodeMin, EncodeMax], so the packed codec accepts exactly the
//     states the legacy codec accepts.
//
// It applies to every program, including registry programs without IR.
// vet.StateLayout narrows the value slots further using its interval
// fixpoint when the program carries IR.
func StructuralLayout(p *Program, threads, ops int) *statecodec.Layout {
	hc := int32(p.HeapCap)
	window := statecodec.MakeSlot(EncodeMin, EncodeMax)
	ptr := statecodec.MakeSlot(0, hc)

	lay := &statecodec.Layout{
		Globals:   make([]statecodec.Slot, len(p.Globals.Kinds)),
		Watermark: ptr,
		Locals:    make([]statecodec.Slot, p.NLocals),
	}
	for i, k := range p.Globals.Kinds {
		if k == KPtr {
			lay.Globals[i] = ptr
		} else {
			lay.Globals[i] = window
		}
	}
	lay.Node[statecodec.NodeKind] = window
	lay.Node[statecodec.NodeVal] = window
	lay.Node[statecodec.NodeKey] = window
	lay.Node[statecodec.NodeNext] = ptr
	lay.Node[statecodec.NodeA] = ptr
	lay.Node[statecodec.NodeB] = ptr
	lay.Node[statecodec.NodeC] = window
	lay.Node[statecodec.NodeD] = window
	lay.Node[statecodec.NodeMark] = statecodec.MakeSlot(0, 1)
	lay.Node[statecodec.NodeLock] = statecodec.MakeSlot(0, int32(threads))

	maxPC := 0
	argLo, argHi := int32(0), int32(0)
	for mi := range p.Methods {
		m := &p.Methods[mi]
		if len(m.Body) > maxPC {
			maxPC = len(m.Body)
		}
		for _, a := range m.Args {
			if a < argLo {
				argLo = a
			}
			if a > argHi {
				argHi = a
			}
		}
	}
	if maxPC == 0 {
		maxPC = 1
	}
	nm := len(p.Methods)
	if nm == 0 {
		nm = 1
	}
	lay.Thread[statecodec.ThreadStatus] = statecodec.MakeSlot(0, 2)
	lay.Thread[statecodec.ThreadMethod] = statecodec.MakeSlot(0, int32(nm-1))
	lay.Thread[statecodec.ThreadArg] = statecodec.MakeSlot(argLo, argHi)
	lay.Thread[statecodec.ThreadPC] = statecodec.MakeSlot(0, int32(maxPC-1))
	lay.Thread[statecodec.ThreadRet] = window
	lay.Thread[statecodec.ThreadOps] = statecodec.MakeSlot(0, int32(ops))
	for li := range lay.Locals {
		if p.localKind(li) == KPtr {
			lay.Locals[li] = ptr
		} else {
			lay.Locals[li] = window
		}
	}
	return lay
}

// layoutFits sanity-checks that lay matches the shape of p under the
// given instance bounds; a mis-shaped layout (built for a different
// program or instance) is discarded rather than risking a mis-encode.
func layoutFits(p *Program, lay *statecodec.Layout, threads, ops int) bool {
	return lay != nil &&
		len(lay.Globals) == len(p.Globals.Kinds) &&
		len(lay.Locals) == p.NLocals &&
		lay.Watermark.Contains(int32(p.HeapCap)) &&
		lay.Node[statecodec.NodeLock].Contains(int32(threads)) &&
		lay.Thread[statecodec.ThreadOps].Contains(int32(ops))
}

// codec encodes canonical states to intern keys and back. The zero
// codec is the legacy one-byte-per-slot encoder; with a layout it is
// the fixed-width bit-packed encoder. Both are injective on canonical
// states (for the packed codec: all slots before the heap watermark are
// fixed-width, so equal encodings agree on the watermark, hence on
// every field boundary), both are allocation-free once buffers are
// warm, and the choice is invisible in the produced LTS — only the
// intern keys differ.
//
// The packed codec writes whole records a word at a time: the globals
// with the watermark, each heap cell's ten fields, and each thread's
// registers with its locals. The bits are exactly those the layout's
// slots would produce one by one.
type codec struct {
	lay *statecodec.Layout
	// global covers the global variables followed by the watermark;
	// node the ten cell fields; thread the six registers followed by
	// the locals.
	global, node, thread *statecodec.Record
}

// newCodec resolves the codec for one exploration of p.
func newCodec(p *Program, opt Options) (codec, error) {
	switch opt.Encoding {
	case EncodingLegacy:
		return codec{}, nil
	case EncodingAuto, EncodingPacked:
		lay := opt.Layout
		if lay != nil && !layoutFits(p, lay, opt.Threads, opt.Ops) {
			lay = nil
		}
		if lay == nil {
			lay = StructuralLayout(p, opt.Threads, opt.Ops)
		}
		return packedCodec(lay), nil
	default:
		return codec{}, fmt.Errorf("machine: %s: unknown state encoding %q", p.Name, opt.Encoding)
	}
}

// packedCodec compiles lay's records.
func packedCodec(lay *statecodec.Layout) codec {
	return codec{
		lay:    lay,
		global: statecodec.NewRecord(append(slices.Clone(lay.Globals), lay.Watermark)...),
		node:   statecodec.NewRecord(lay.Node[:]...),
		thread: statecodec.NewRecord(append(slices.Clone(lay.Thread[:]), lay.Locals...)...),
	}
}

// name reports the codec for telemetry.
func (c codec) name() string {
	if c.lay == nil {
		return "legacy"
	}
	return "packed"
}

// watermark is the highest non-empty heap cell below live (0 when every
// cell is empty). Cells at or above live must be empty: the
// canonicalizer's live count bounds the search, so it never walks the
// empty top of the heap.
func watermark(heap []Node, live int) int {
	for i := min(live, len(heap)) - 1; i >= 1; i-- {
		if heap[i] != (Node{}) {
			return i
		}
	}
	return 0
}

// encode serializes a canonicalized state, in exactly the traversal
// order of the legacy encoder. live bounds the possibly non-empty heap
// cells (the canonicalizer's live count; len(Heap) when unknown).
func (c codec) encode(buf []byte, st *state, live int) []byte {
	if c.lay == nil {
		return encode(buf, st)
	}
	var w statecodec.BitWriter
	w.Reset(buf)
	g := st.g
	hw := watermark(g.Heap, live)
	wm := [1]int32{int32(hw)}
	w.PutRecord(c.global, g.Vars, wm[:])
	for i := 1; i <= hw; i++ {
		n := &g.Heap[i]
		m := int32(0)
		if n.Mark {
			m = 1
		}
		f := [statecodec.NodeSlots]int32{n.Kind, n.Val, n.Key, n.Next, n.A, n.B, n.C, n.D, m, n.Lock}
		w.PutRecord(c.node, f[:], nil)
	}
	for ti := range st.th {
		th := &st.th[ti]
		r := [statecodec.ThreadSlots]int32{th.status, th.method, th.arg, th.pc, th.ret, th.ops}
		w.PutRecord(c.thread, r[:], th.locals)
	}
	return w.Finish()
}

// decode reconstructs a state into st, which must be shaped for the
// program.
func (c codec) decode(buf []byte, st *state) {
	if c.lay == nil {
		decode(buf, st)
		return
	}
	var r statecodec.BitReader
	r.Reset(buf)
	g := st.g
	var wm [1]int32
	r.GetRecord(c.global, g.Vars, wm[:])
	hw := int(wm[0])
	for hi := 1; hi <= hw; hi++ {
		var f [statecodec.NodeSlots]int32
		r.GetRecord(c.node, f[:], nil)
		g.Heap[hi] = Node{
			Kind: f[statecodec.NodeKind], Val: f[statecodec.NodeVal], Key: f[statecodec.NodeKey],
			Next: f[statecodec.NodeNext], A: f[statecodec.NodeA], B: f[statecodec.NodeB],
			C: f[statecodec.NodeC], D: f[statecodec.NodeD],
			Mark: f[statecodec.NodeMark] != 0, Lock: f[statecodec.NodeLock],
		}
	}
	clear(g.Heap[hw+1:])
	for ti := range st.th {
		th := &st.th[ti]
		var rg [statecodec.ThreadSlots]int32
		r.GetRecord(c.thread, rg[:], th.locals)
		th.status = rg[statecodec.ThreadStatus]
		th.method = rg[statecodec.ThreadMethod]
		th.arg = rg[statecodec.ThreadArg]
		th.pc = rg[statecodec.ThreadPC]
		th.ret = rg[statecodec.ThreadRet]
		th.ops = rg[statecodec.ThreadOps]
	}
}
