package machine

import (
	"context"
	"fmt"
	"time"

	"repro/internal/lts"
	"repro/internal/statecodec"
)

// Test-only reference code: the sequential explorer (its own
// map[string]int32 interning and key slice) and the slot-by-slot packed
// codec that the store-backed explorer and the record codec replaced,
// kept verbatim apart from renaming. The differential tests in
// explore_diff_test.go check the replacements against them.

// refExplorer is the sequential state-space generator: a BFS over interned
// canonical state encodings, emitting transitions straight into a CSR
// builder.
type refExplorer struct {
	ctx      context.Context
	prog     *Program
	opt      Options
	cdc      refCodec
	ai       *actionInterner
	ids      map[string]int32
	keys     [][]byte
	buf      []byte
	keyBytes int64
	limit    int
	err      error
	csr      *lts.CSRBuilder
	x        expander
}

// internState canonicalizes, encodes and interns st, returning its ID.
// The state budget is enforced here, at the moment the offending state is
// interned, so one state's expansion cannot run arbitrarily far past
// MaxStates before the error surfaces: e.err carries the StateLimitError
// as soon as the limit is crossed and callers stop promptly.
func (e *refExplorer) internState(st *state) int32 {
	e.x.canon.run(st)
	e.buf = e.cdc.encode(e.buf[:0], st)
	if id, ok := e.ids[string(e.buf)]; ok {
		return id
	}
	id := int32(len(e.keys))
	key := append([]byte(nil), e.buf...)
	e.ids[bytesString(key)] = id
	e.keys = append(e.keys, key)
	e.keyBytes += int64(len(key))
	if len(e.keys) > e.limit && e.err == nil {
		e.err = &StateLimitError{Program: e.prog.Name, Limit: e.limit}
	}
	return id
}

func (e *refExplorer) run(limit int) (*lts.LTS, *Info, error) {
	p := e.prog
	start := time.Now()
	e.limit = limit
	e.x = newExpander(p, e.opt.Threads)
	e.x.red = e.opt.Reduction
	e.internState(initialState(p, e.opt))
	if e.err != nil {
		return nil, nil, e.err
	}

	info := &Info{}
	e.csr = lts.NewCSRBuilder(e.ai.acts, e.ai.labels)
	cur := newScratchState(p, e.opt.Threads)
	for si := 0; si < len(e.keys); si++ {
		if si&cancelCheckMask == 0 && e.ctx.Err() != nil {
			return nil, nil, canceled(e.ctx, p.Name)
		}
		e.cdc.decode(e.keys[si], cur)
		if err := e.csr.BeginState(int32(si)); err != nil {
			return nil, nil, err
		}
		emitted := e.x.expandState(cur, e)
		if e.err != nil {
			return nil, nil, e.err
		}
		if emitted == 0 && !allDone(cur) {
			info.Deadlocks = append(info.Deadlocks, int32(si))
		}
	}
	info.Stats = ExploreStats{
		Encoding:          e.cdc.name(),
		States:            len(e.keys),
		EncodedBytes:      e.keyBytes,
		PeakResidentBytes: e.keyBytes,
		PeakRSSBytes:      e.opt.Backend.ProcessPeakRSS(),
		PrunedStates:      e.x.pruned,
		Elapsed:           time.Since(start),
	}
	return e.csr.Build(len(e.keys), 0), info, nil
}

// emit implements transSink for the sequential refExplorer: intern the
// successor, resolve the action, and write the transition to the CSR
// builder. Expansion aborts once the state budget has been crossed.
func (e *refExplorer) emit(x *expander, tr symTrans) bool {
	dst := e.internState(x.succ)
	if e.err != nil {
		return false
	}
	act, lbl := e.ai.resolve(tr)
	e.csr.Emit(act, lbl, dst)
	return true
}

// refCodec encodes canonical states to intern keys and back. The zero
// refCodec is the legacy one-byte-per-slot encoder; with a layout it is
// the fixed-width bit-packed encoder. Both are injective on canonical
// states (for the packed refCodec: all slots before the heap watermark are
// fixed-width, so equal encodings agree on the watermark, hence on
// every field boundary), both are allocation-free once buffers are
// warm, and the choice is invisible in the produced LTS — only the
// intern keys differ.
type refCodec struct {
	lay *statecodec.Layout
}

// refNewCodec resolves the refCodec for one exploration of p.
func refNewCodec(p *Program, opt Options) (refCodec, error) {
	switch opt.Encoding {
	case EncodingLegacy:
		return refCodec{}, nil
	case EncodingAuto, EncodingPacked:
		lay := opt.Layout
		if lay != nil && !layoutFits(p, lay, opt.Threads, opt.Ops) {
			lay = nil
		}
		if lay == nil {
			lay = StructuralLayout(p, opt.Threads, opt.Ops)
		}
		return refCodec{lay: lay}, nil
	default:
		return refCodec{}, fmt.Errorf("machine: %s: unknown state encoding %q", p.Name, opt.Encoding)
	}
}

// name reports the codec for telemetry.
func (c refCodec) name() string {
	if c.lay == nil {
		return "legacy"
	}
	return "packed"
}

// encode serializes a canonicalized state, in exactly the traversal
// order of the legacy encoder.
func (c refCodec) encode(buf []byte, st *state) []byte {
	if c.lay == nil {
		return encode(buf, st)
	}
	lay := c.lay
	var w statecodec.BitWriter
	w.Reset(buf)
	g := st.g
	for i, v := range g.Vars {
		w.Put(lay.Globals[i], v)
	}
	hw := 0
	for i := len(g.Heap) - 1; i >= 1; i-- {
		if g.Heap[i] != (Node{}) {
			hw = i
			break
		}
	}
	w.Put(lay.Watermark, int32(hw))
	for i := 1; i <= hw; i++ {
		n := &g.Heap[i]
		w.Put(lay.Node[statecodec.NodeKind], n.Kind)
		w.Put(lay.Node[statecodec.NodeVal], n.Val)
		w.Put(lay.Node[statecodec.NodeKey], n.Key)
		w.Put(lay.Node[statecodec.NodeNext], n.Next)
		w.Put(lay.Node[statecodec.NodeA], n.A)
		w.Put(lay.Node[statecodec.NodeB], n.B)
		w.Put(lay.Node[statecodec.NodeC], n.C)
		w.Put(lay.Node[statecodec.NodeD], n.D)
		m := int32(0)
		if n.Mark {
			m = 1
		}
		w.Put(lay.Node[statecodec.NodeMark], m)
		w.Put(lay.Node[statecodec.NodeLock], n.Lock)
	}
	for ti := range st.th {
		th := &st.th[ti]
		w.Put(lay.Thread[statecodec.ThreadStatus], th.status)
		w.Put(lay.Thread[statecodec.ThreadMethod], th.method)
		w.Put(lay.Thread[statecodec.ThreadArg], th.arg)
		w.Put(lay.Thread[statecodec.ThreadPC], th.pc)
		w.Put(lay.Thread[statecodec.ThreadRet], th.ret)
		w.Put(lay.Thread[statecodec.ThreadOps], th.ops)
		for li, l := range th.locals {
			w.Put(lay.Locals[li], l)
		}
	}
	return w.Finish()
}

// decode reconstructs a state into st, which must be shaped for the
// program.
func (c refCodec) decode(buf []byte, st *state) {
	if c.lay == nil {
		decode(buf, st)
		return
	}
	lay := c.lay
	var r statecodec.BitReader
	r.Reset(buf)
	g := st.g
	for vi := range g.Vars {
		g.Vars[vi] = r.Get(lay.Globals[vi])
	}
	hw := int(r.Get(lay.Watermark))
	for hi := 1; hi <= hw; hi++ {
		n := &g.Heap[hi]
		n.Kind = r.Get(lay.Node[statecodec.NodeKind])
		n.Val = r.Get(lay.Node[statecodec.NodeVal])
		n.Key = r.Get(lay.Node[statecodec.NodeKey])
		n.Next = r.Get(lay.Node[statecodec.NodeNext])
		n.A = r.Get(lay.Node[statecodec.NodeA])
		n.B = r.Get(lay.Node[statecodec.NodeB])
		n.C = r.Get(lay.Node[statecodec.NodeC])
		n.D = r.Get(lay.Node[statecodec.NodeD])
		n.Mark = r.Get(lay.Node[statecodec.NodeMark]) != 0
		n.Lock = r.Get(lay.Node[statecodec.NodeLock])
	}
	for hi := hw + 1; hi < len(g.Heap); hi++ {
		g.Heap[hi] = Node{}
	}
	for ti := range st.th {
		th := &st.th[ti]
		th.status = r.Get(lay.Thread[statecodec.ThreadStatus])
		th.method = r.Get(lay.Thread[statecodec.ThreadMethod])
		th.arg = r.Get(lay.Thread[statecodec.ThreadArg])
		th.pc = r.Get(lay.Thread[statecodec.ThreadPC])
		th.ret = r.Get(lay.Thread[statecodec.ThreadRet])
		th.ops = r.Get(lay.Thread[statecodec.ThreadOps])
		for li := range th.locals {
			th.locals[li] = r.Get(lay.Locals[li])
		}
	}
}
