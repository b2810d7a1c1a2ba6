package harness

import (
	"fmt"
	"io"
	"strings"
)

// experiment is one named paperbench experiment: a compute + print pair.
// run returns the number of ERR(<kind>) rows embedded in the printed
// output — row-level failures the sweep survived — and a hard error when
// the experiment could not run at all.
type experiment struct {
	name string
	run  func(o Options, w io.Writer) (int, error)
}

// entry registers a study: run computes its rows, render prints them,
// and the failed rows are counted.
func entry[R interface{ err() error }](name string, run func(Options) ([]R, error), render func(io.Writer, []R)) experiment {
	return experiment{name, func(o Options, w io.Writer) (int, error) {
		rows, err := run(o)
		if err != nil {
			return 0, err
		}
		render(w, rows)
		failed := 0
		for _, r := range rows {
			if r.err() != nil {
				failed++
			}
		}
		return failed, nil
	}}
}

func (r Table1Row) err() error     { return nil } // Table I compiles only
func (r Fig1Row) err() error       { return r.Err }
func (r AppResult) err() error     { return r.Err }
func (r Fig8Result) err() error    { return r.Err }
func (r CmpResult) err() error     { return r.Err }
func (r EsSweepRow) err() error    { return r.Err }
func (r PairedResult) err() error  { return r.Err }
func (r Fig13Row) err() error      { return r.Err }
func (r EnergyRow) err() error     { return r.Err }
func (r SeedRow) err() error       { return r.Err }
func (r GeneralityRow) err() error { return r.Err }

// experimentOrder lists every experiment in paperbench's report order.
// fig10 and fig11 are independent entries over the same EsSweep; the
// pool's memo cache makes the second rendering free.
var experimentOrder = []experiment{
	entry("table1", Table1, PrintTable1),
	{"storage", func(_ Options, w io.Writer) (int, error) {
		PrintStorage(w)
		return 0, nil
	}},
	entry("fig1", Fig1, PrintFig1),
	{"fig2", func(_ Options, w io.Writer) (int, error) {
		tl, err := Fig2()
		if err != nil {
			return 0, err
		}
		PrintFig2(w, tl)
		return 0, nil
	}},
	{"fig3", func(_ Options, w io.Writer) (int, error) { return 0, PrintFig3(w) }},
	entry("fig7", Fig7, PrintFig7),
	entry("fig8", Fig8, PrintFig8),
	entry("fig9a", Fig9a, func(w io.Writer, rows []CmpResult) { PrintFig9(w, rows, false) }),
	entry("fig9b", Fig9b, func(w io.Writer, rows []CmpResult) { PrintFig9(w, rows, true) }),
	entry("fig10", EsSweep, PrintFig10),
	entry("fig11", EsSweep, PrintFig11),
	entry("fig12a", Fig12a, func(w io.Writer, rows []PairedResult) { PrintFig12(w, rows, false) }),
	entry("fig12b", Fig12b, func(w io.Writer, rows []PairedResult) { PrintFig12(w, rows, true) }),
	entry("fig13", Fig13, PrintFig13),
	entry("energy", Energy, PrintEnergy),
	entry("seeds", func(o Options) ([]SeedRow, error) { return SeedStability(o, nil) }, PrintSeedStability),
	entry("generality", Generality, PrintGenerality),
}

// ExperimentNames lists every named experiment in report order; these
// are the values paperbench's -exp flag and the service's experiment
// jobs accept.
func ExperimentNames() []string {
	out := make([]string, len(experimentOrder))
	for i, e := range experimentOrder {
		out[i] = e.name
	}
	return out
}

// IsExperiment reports whether name is a known experiment.
func IsExperiment(name string) bool {
	for _, e := range experimentOrder {
		if e.name == name {
			return true
		}
	}
	return false
}

// NotFoundError is the typed "no such name" rejection for every
// registry lookup the tools expose (-exp, -policy, -w): it carries the
// rejected name and the full valid set, so usage output can always list
// what would have worked instead of leaving the user to guess.
type NotFoundError struct {
	Kind  string // "experiment" | "policy" | "workload"
	Name  string
	Valid []string
}

func (e *NotFoundError) Error() string {
	return fmt.Sprintf("unknown %s %q (want %s)", e.Kind, e.Name, strings.Join(e.Valid, " | "))
}

// RunExperiment regenerates one named experiment, printing its tables to
// w. The int return counts ERR(<kind>) rows the sweep survived (callers
// turn a non-zero count into a failing exit); the error return is a hard
// failure that prevented the experiment from running — a *NotFoundError
// listing ExperimentNames when the name is unknown.
func RunExperiment(name string, o Options, w io.Writer) (int, error) {
	for _, e := range experimentOrder {
		if e.name == name {
			return e.run(o, w)
		}
	}
	return 0, &NotFoundError{Kind: "experiment", Name: name, Valid: ExperimentNames()}
}
