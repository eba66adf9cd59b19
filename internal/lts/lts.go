package lts

import (
	"fmt"
	"slices"
)

// LabelID identifies an interned diagnostic label (e.g. "t1.L28") attached
// to a transition. Labels never influence any equivalence; they only make
// counterexamples readable.
type LabelID int32

// NoLabel marks a transition without a diagnostic label.
const NoLabel LabelID = -1

// Transition is one outgoing edge of a state.
type Transition struct {
	Action ActionID
	Label  LabelID
	Dst    int32
}

// LTS is an immutable labeled transition system with states 0..NumStates-1
// and transitions stored in compressed sparse rows, grouped by source state.
type LTS struct {
	// Acts interns the action names used by this system. Systems that are
	// compared with each other must share one Alphabet.
	Acts *Alphabet
	// Labels interns diagnostic transition labels; may be shared too.
	Labels *Alphabet
	// Init is the initial state.
	Init int32

	numStates int
	offsets   []int32
	edges     []Transition
}

// NumStates returns the number of states.
func (l *LTS) NumStates() int { return l.numStates }

// NumTransitions returns the number of transitions.
func (l *LTS) NumTransitions() int { return len(l.edges) }

// Succ returns the outgoing transitions of state s. The returned slice
// aliases internal storage and must not be modified.
func (l *LTS) Succ(s int32) []Transition {
	return l.edges[l.offsets[s]:l.offsets[s+1]]
}

// LabelName renders a transition label, or "" when the transition carries
// none or the LTS has no label table.
func (l *LTS) LabelName(id LabelID) string {
	if id == NoLabel || l.Labels == nil {
		return ""
	}
	return l.Labels.Name(ActionID(id))
}

// Builder constructs an LTS incrementally. Edges may be added in any
// order; Build groups them by source state.
type Builder struct {
	acts   *Alphabet
	labels *Alphabet
	init   int32
	n      int
	edges  []edge
}

type edge struct {
	src int32
	tr  Transition
}

// NewBuilder returns a builder for an LTS over the given alphabet. A nil
// alphabet allocates a fresh one.
func NewBuilder(acts *Alphabet) *Builder {
	if acts == nil {
		acts = NewAlphabet()
	}
	return &Builder{acts: acts}
}

// SetLabels attaches a diagnostic label table.
func (b *Builder) SetLabels(labels *Alphabet) { b.labels = labels }

// SetInit sets the initial state, growing the state count if needed.
func (b *Builder) SetInit(s int) {
	b.init = int32(s)
	b.need(s)
}

// AddStates ensures the LTS has at least n states.
func (b *Builder) AddStates(n int) { b.need(n - 1) }

func (b *Builder) need(s int) {
	if s >= b.n {
		b.n = s + 1
	}
}

// Add records a transition src --act--> dst using an interned action name.
func (b *Builder) Add(src int, act string, dst int) {
	b.AddID(src, b.acts.ID(act), dst)
}

// AddID records a transition with a pre-interned action.
func (b *Builder) AddID(src int, act ActionID, dst int) {
	b.AddFull(src, act, NoLabel, dst)
}

// AddFull records a transition with a diagnostic label.
func (b *Builder) AddFull(src int, act ActionID, label LabelID, dst int) {
	b.need(src)
	b.need(dst)
	b.edges = append(b.edges, edge{src: int32(src), tr: Transition{Action: act, Label: label, Dst: int32(dst)}})
}

// Build finalizes the LTS. The builder must not be reused afterwards.
// A stable counting sort groups the edges by source, so each state's
// transitions keep their insertion order.
func (b *Builder) Build() *LTS {
	if b.n == 0 {
		b.n = 1 // at least the initial state
	}
	offsets := make([]int32, b.n+1)
	for _, e := range b.edges {
		offsets[e.src+1]++
	}
	for s := 1; s <= b.n; s++ {
		offsets[s] += offsets[s-1] // offsets[s] is now the start of row s
	}
	edges := make([]Transition, len(b.edges))
	for _, e := range b.edges {
		edges[offsets[e.src]] = e.tr
		offsets[e.src]++ // a per-row cursor: ends at the start of row src+1
	}
	copy(offsets[1:], offsets)
	offsets[0] = 0
	return &LTS{Acts: b.acts, Labels: b.labels, Init: b.init, numStates: b.n, offsets: offsets, edges: edges}
}

// Project maps l onto the classes 0..numClasses-1 of the state map classOf:
// every edge s --a--> t becomes classOf[s] --a--> classOf[t], except that τ
// edges inside one class are dropped, and the initial state is
// classOf[l.Init]. A class's row lists the edges of its states in state
// order and keeps only the first edge per exact (target, action) pair, in
// that edge's position and with its label. The rows come from Build's
// counting sort and are deduplicated with a per-class stamp array, so the
// cost is O(n + m) plus, for a repeated target, a scan of the distinct
// actions already kept towards it; there is no hash map and no comparison
// sort. CollapseTauSCCs and the bisimulation quotient are projections.
func Project(l *LTS, classOf []int32, numClasses int) *LTS {
	b := &Builder{acts: l.Acts, labels: l.Labels, init: classOf[l.Init], n: numClasses,
		edges: make([]edge, 0, len(l.edges))}
	for s := 0; s < l.numStates; s++ {
		c := classOf[s]
		for _, t := range l.Succ(int32(s)) {
			if t.Dst = classOf[t.Dst]; !IsTau(t.Action) || t.Dst != c {
				b.edges = append(b.edges, edge{c, t})
			}
		}
	}
	p := b.Build()
	// Compact the rows in place. last[d]-1 is the newest kept edge towards
	// d and prev chains the kept edges towards one target; kept indices
	// from the row's start w0 on belong to the current row.
	last, prev := make([]int32, numClasses), make([]int32, len(p.edges))
	var w int32
	for c := 0; c < numClasses; c++ {
		row, w0 := p.Succ(int32(c)), w
		p.offsets[c] = w0
		for _, t := range row {
			k := last[t.Dst] - 1
			for k >= w0 && p.edges[k].Action != t.Action {
				k = prev[k]
			}
			if k < w0 {
				p.edges[w], prev[w] = t, last[t.Dst]-1
				w++
				last[t.Dst] = w
			}
		}
	}
	p.offsets[numClasses] = w
	if int(w) < len(p.edges) {
		p.edges = append(make([]Transition, 0, w), p.edges[:w]...)
	}
	return p
}

// CSRBuilder constructs an LTS whose transitions arrive already grouped by
// source state in increasing order, so it appends rows directly instead of
// buffering edges with their sources as Builder does. This is the natural
// order produced by breadth-first state-space exploration.
type CSRBuilder struct {
	acts    *Alphabet
	labels  *Alphabet
	init    int32
	offsets []int32
	edges   []Transition
	cur     int32
}

// NewCSRBuilder returns a CSR builder over the given alphabets.
func NewCSRBuilder(acts, labels *Alphabet) *CSRBuilder {
	if acts == nil {
		acts = NewAlphabet()
	}
	return &CSRBuilder{acts: acts, labels: labels, cur: -1, offsets: []int32{0}}
}

// BeginState starts emitting the transitions of state s. States must be
// begun in strictly increasing order starting at 0.
func (b *CSRBuilder) BeginState(s int32) error {
	if s != b.cur+1 {
		return fmt.Errorf("lts: BeginState(%d) out of order, expected %d", s, b.cur+1)
	}
	b.cur = s
	b.offsets = append(b.offsets, int32(len(b.edges)))
	return nil
}

// Emit adds a transition from the current state.
func (b *CSRBuilder) Emit(act ActionID, label LabelID, dst int32) {
	b.edges = append(b.edges, Transition{Action: act, Label: label, Dst: dst})
	b.offsets[len(b.offsets)-1] = int32(len(b.edges))
}

// Reserve grows the builder's capacity for at least states more states
// and edges more transitions, so a bulk merge appends without regrowing.
// Growth is geometric (slices.Grow follows append's policy), so
// reserving level after level of a BFS copies the edge array O(log m)
// times, not once per level.
func (b *CSRBuilder) Reserve(states, edges int) {
	b.offsets = slices.Grow(b.offsets, states)
	b.edges = slices.Grow(b.edges, edges)
}

// trim returns s in an array of its own length when more than a
// sixteenth of its capacity is unused.
func trim[E any](s []E) []E {
	if cap(s)-len(s) <= len(s)/16 {
		return s
	}
	return slices.Clone(s)
}

// EmitRow appends every transition of state s in one call — the bulk
// emission path used by the parallel explorer's merge. Like BeginState,
// rows must arrive in strictly increasing state order starting at 0; an
// EmitRow with an empty row records a state without transitions.
func (b *CSRBuilder) EmitRow(s int32, row []Transition) error {
	if s != b.cur+1 {
		return fmt.Errorf("lts: EmitRow(%d) out of order, expected %d", s, b.cur+1)
	}
	b.cur = s
	b.edges = append(b.edges, row...)
	b.offsets = append(b.offsets, int32(len(b.edges)))
	return nil
}

// Build finalizes the LTS with the given total number of states; states
// beyond the last BeginState have no outgoing transitions.
func (b *CSRBuilder) Build(numStates int, init int32) *LTS {
	for int(b.cur) < numStates-1 {
		b.cur++
		b.offsets = append(b.offsets, int32(len(b.edges)))
	}
	// The LTS outlives the builder (a session keeps it for the whole
	// job, through refinement, the job's memory peak), so it does not
	// keep Reserve's growth slack.
	b.offsets, b.edges = trim(b.offsets), trim(b.edges)
	return &LTS{
		Acts:      b.acts,
		Labels:    b.labels,
		Init:      init,
		numStates: numStates,
		offsets:   b.offsets,
		edges:     b.edges,
	}
}

// DisjointUnion combines two systems over the same alphabet into one LTS
// whose states 0..a.NumStates()-1 are a's and whose remaining states are
// b's shifted by a.NumStates(). The union's Init is a's initial state; b's
// shifted initial state is returned separately.
func DisjointUnion(a, b *LTS) (union *LTS, initB int32, err error) {
	if a.Acts != b.Acts {
		return nil, 0, fmt.Errorf("lts: disjoint union requires a shared alphabet")
	}
	shift := int32(a.numStates)
	n := a.numStates + b.numStates
	offsets := make([]int32, n+1)
	copy(offsets, a.offsets)
	ea := int32(len(a.edges))
	for i := 1; i <= b.numStates; i++ {
		offsets[a.numStates+i] = ea + b.offsets[i]
	}
	edges := make([]Transition, 0, len(a.edges)+len(b.edges))
	edges = append(edges, a.edges...)
	for _, t := range b.edges {
		t.Dst += shift
		edges = append(edges, t)
	}
	return &LTS{
		Acts:      a.Acts,
		Labels:    a.Labels,
		Init:      a.Init,
		numStates: n,
		offsets:   offsets,
		edges:     edges,
	}, b.Init + shift, nil
}

// VisibleActions returns the set of non-τ action IDs that occur on some
// transition, in increasing order.
func (l *LTS) VisibleActions() []ActionID {
	seen := make([]bool, l.Acts.Len())
	for _, t := range l.edges {
		seen[t.Action] = true
	}
	var out []ActionID
	for id, ok := range seen {
		if ok && !IsTau(ActionID(id)) {
			out = append(out, ActionID(id))
		}
	}
	return out
}

// CountTau returns the number of τ transitions.
func (l *LTS) CountTau() int {
	n := 0
	for _, t := range l.edges {
		if IsTau(t.Action) {
			n++
		}
	}
	return n
}
