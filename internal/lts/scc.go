package lts

// TauSCC is the result of decomposing an LTS's τ-subgraph into strongly
// connected components.
type TauSCC struct {
	// Comp maps each state to its component index. Components are numbered
	// in reverse topological order of the τ-DAG: every τ transition that
	// crosses components goes from a higher-numbered to a lower-numbered
	// component.
	Comp []int32
	// NumComps is the number of components.
	NumComps int
	// Divergent[c] reports whether component c contains a τ-cycle: it has
	// more than one state, or a single state with a τ self-loop. States in
	// such components are exactly the states that can diverge without
	// leaving their branching-bisimulation class via that cycle
	// (Lemma 5.6 of the paper).
	Divergent []bool
}

// TauSCCs computes the strongly connected components of the τ-subgraph
// using an iterative Tarjan algorithm.
func TauSCCs(l *LTS) *TauSCC {
	n := l.NumStates()
	const unvisited = -1
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	comp := make([]int32, n)
	for i := range index {
		index[i] = unvisited
		comp[i] = -1
	}
	var (
		stack     []int32 // Tarjan stack
		callS     []int32 // DFS: state
		callE     []int32 // DFS: next edge offset within Succ(state)
		next      int32
		divergent []bool
		ncomp     int32
	)
	selfLoop := make([]bool, n)

	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		callS = append(callS[:0], int32(root))
		callE = append(callE[:0], 0)
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, int32(root))
		onStack[root] = true
		for len(callS) > 0 {
			v := callS[len(callS)-1]
			succ := l.Succ(v)
			advanced := false
			for ei := callE[len(callE)-1]; int(ei) < len(succ); ei++ {
				t := succ[ei]
				if !IsTau(t.Action) {
					continue
				}
				w := t.Dst
				if w == v {
					selfLoop[v] = true
				}
				if index[w] == unvisited {
					callE[len(callE)-1] = ei + 1
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					callS = append(callS, w)
					callE = append(callE, 0)
					advanced = true
					break
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			// v is finished.
			callS = callS[:len(callS)-1]
			callE = callE[:len(callE)-1]
			if len(callS) > 0 {
				p := callS[len(callS)-1]
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				size := 0
				div := false
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = ncomp
					size++
					if selfLoop[w] {
						div = true
					}
					if w == v {
						break
					}
				}
				divergent = append(divergent, div || size > 1)
				ncomp++
			}
		}
	}
	return &TauSCC{Comp: comp, NumComps: int(ncomp), Divergent: divergent}
}

// CollapseTauSCCs returns an LTS in which every τ-SCC of l is merged into
// a single state. All states on a τ-cycle are branching bisimilar
// (Lemma 5.6), so the collapse preserves branching bisimilarity; it also
// preserves divergence information through the scc.Divergent flags, which
// are reindexed to the new states by the returned mapping.
//
// The returned stateOf maps original states to collapsed states (it is
// exactly scc.Comp). The collapse is the projection of l onto scc.Comp:
// τ edges inside a component are dropped, all other transitions are kept
// with duplicates removed (see Project).
func CollapseTauSCCs(l *LTS, scc *TauSCC) (collapsed *LTS, stateOf []int32) {
	return Project(l, scc.Comp, scc.NumComps), scc.Comp
}

// HasTauCycle reports whether any state reachable from the initial state
// lies on a τ-cycle, and returns one such state. In the object systems of
// this library a reachable τ-cycle is exactly a lock-freedom violation
// (a divergence that performs no return action).
func HasTauCycle(l *LTS) (state int32, ok bool) {
	scc := TauSCCs(l)
	reach := Reachable(l)
	for s := 0; s < l.NumStates(); s++ {
		if reach[s] && scc.Divergent[scc.Comp[s]] {
			return int32(s), true
		}
	}
	return 0, false
}

// Reachable returns the set of states reachable from the initial state.
func Reachable(l *LTS) []bool {
	seen := make([]bool, l.NumStates())
	queue := []int32{l.Init}
	seen[l.Init] = true
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for _, t := range l.Succ(s) {
			if !seen[t.Dst] {
				seen[t.Dst] = true
				queue = append(queue, t.Dst)
			}
		}
	}
	return seen
}
