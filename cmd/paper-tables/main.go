// Command paper-tables regenerates the tables and figures of the paper's
// evaluation (Section VI). With no arguments it lists the available
// exhibits; "all" runs every exhibit in paper order.
//
//	paper-tables [-quick] [-max-states N] [-workers N] [-stages] all
//	paper-tables [-quick] [-max-states N] [-workers N] [-stages] table3 fig10 ...
//
// -stages appends a per-stage runtime accounting (explorations, quotient
// reductions, equivalence checks, ...) to each exhibit, showing how much
// work the exhibit's artifact sessions served from cache.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/exhibits"
	"repro/internal/statecodec"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "paper-tables:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("paper-tables", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "run reduced instances (fast demo)")
	maxStates := fs.Int("max-states", 0, "per-instance state budget (0 = default)")
	workers := fs.Int("workers", 0, "exploration workers (0 = all cores, 1 = one worker, inline)")
	stages := fs.Bool("stages", false, "print per-stage runtime totals after each exhibit")
	membudget := fs.String("membudget", "", "resident state-storage budget per exploration, e.g. 2GiB; past it, state storage spills to temp files (default: all in RAM) — exhibit contents are identical for any budget")
	reduction := fs.Bool("reduction", false, "enable the static tau-confluence partial-order reduction in every exploration (verdicts and quotients are identical; raw state counts shrink for IR-carrying programs)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var memBytes int64
	if *membudget != "" {
		var err error
		memBytes, err = statecodec.ParseBudget(*membudget)
		if err != nil {
			return fmt.Errorf("bad -membudget: %w", err)
		}
	}
	names := fs.Args()
	if len(names) == 0 {
		fmt.Println("available exhibits:")
		for _, e := range exhibits.All() {
			fmt.Printf("  %-8s %-18s %s\n", e.Name, e.Paper, e.Description)
		}
		fmt.Println("  all      (everything, paper order)")
		return nil
	}
	var selected []exhibits.Exhibit
	for _, name := range names {
		if name == "all" {
			selected = exhibits.All()
			break
		}
		e, err := exhibits.ByName(name)
		if err != nil {
			return err
		}
		selected = append(selected, e)
	}
	opt := exhibits.Options{Quick: *quick, MaxStates: *maxStates, Workers: *workers, MemBudget: memBytes, Reduction: *reduction}
	for _, e := range selected {
		start := time.Now()
		t, err := e.Run(opt)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		fmt.Println(t.Render())
		if *stages {
			printStages(t.Stages)
		}
		fmt.Printf("[%s regenerated in %.1fs]\n\n", e.Paper, time.Since(start).Seconds())
	}
	return nil
}

// printStages aggregates an exhibit's per-stage instrumentation into
// run/cache-hit/total-time totals per stage name.
func printStages(stats []core.StageStat) {
	if len(stats) == 0 {
		return
	}
	type agg struct {
		runs, cached int
		elapsed      time.Duration
	}
	byStage := map[string]*agg{}
	for _, st := range stats {
		a := byStage[st.Stage]
		if a == nil {
			a = &agg{}
			byStage[st.Stage] = a
		}
		if st.Cached {
			a.cached++
		} else {
			a.runs++
			a.elapsed += st.Elapsed
		}
	}
	names := make([]string, 0, len(byStage))
	for name := range byStage {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Println("stage totals:")
	fmt.Printf("  %-16s %6s %8s %10s\n", "stage", "runs", "cached", "time (s)")
	for _, name := range names {
		a := byStage[name]
		fmt.Printf("  %-16s %6d %8d %10.2f\n", name, a.runs, a.cached, a.elapsed.Seconds())
	}
}
