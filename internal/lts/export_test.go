package lts

// DiffCollapseReference collapses l with CollapseTauSCCs and with the
// hash-set reference, and describes their first difference (nil if none).
func DiffCollapseReference(l *LTS) error {
	scc := TauSCCs(l)
	got, _ := CollapseTauSCCs(l, scc)
	return diffLTS(got, refCollapse(l, scc))
}
