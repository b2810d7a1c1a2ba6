// Command hypo runs hypothesis specs: declarative config-matrix sweeps
// with statistical verdicts and FINDINGS reports (internal/hypo).
//
// Usage:
//
//	hypo examples/hypotheses/h1-regmutex-pareto.yaml   # one spec, report to stdout
//	hypo examples/hypotheses                           # every spec in a tree
//	hypo -out findings/ -j 8 examples/hypotheses       # reports to findings/<name>/
//	hypo -gate specs/                                  # exit 1 if anything is Refuted
//
// Every spec in one invocation shares a memoized run pool, so
// hypotheses over overlapping matrices reuse each other's simulations.
// Reports are byte-identical at any -j and across repeated runs.
//
// Exit status: 0 when every spec ran (and, under -gate, nothing was
// Refuted), 1 on a hard failure or a -gate violation, 2 on a spec
// parse/validation error or bad usage.
package main

import (
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"regmutex/internal/hypo"
	"regmutex/internal/runpool"
)

func main() {
	jobs := flag.Int("j", 0, "simulations to run concurrently (0 = all cores, 1 = serial)")
	gate := flag.Bool("gate", false, "exit non-zero when any hypothesis is Refuted")
	outDir := flag.String("out", "", "write <out>/<name>/{FINDINGS.md,report.json} instead of stdout")
	flag.Parse()

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "hypo: usage: hypo [-j N] [-gate] [-out DIR] <spec.yaml|dir>...")
		os.Exit(2)
	}

	paths, err := collectSpecs(flag.Args())
	if err != nil {
		fmt.Fprintf(os.Stderr, "hypo: %v\n", err)
		os.Exit(2)
	}
	if len(paths) == 0 {
		fmt.Fprintln(os.Stderr, "hypo: no spec files found (want .yaml, .yml, or .json)")
		os.Exit(2)
	}

	// Parse everything before running anything: a typo in the last spec
	// of a tree should not cost the first spec's simulations.
	specs := make([]*hypo.Spec, len(paths))
	names := map[string]string{}
	for i, p := range paths {
		s, err := hypo.ParseFile(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hypo: %v\n", err)
			os.Exit(2)
		}
		if prev, dup := names[s.Name]; dup {
			fmt.Fprintf(os.Stderr, "hypo: %s: duplicate hypothesis name %q (also %s)\n", p, s.Name, prev)
			os.Exit(2)
		}
		names[s.Name] = p
		specs[i] = s
	}

	pool := runpool.New(*jobs)
	start := time.Now()
	refuted, inconclusive := 0, 0
	for i, s := range specs {
		res, err := hypo.Run(s, hypo.RunOptions{Pool: pool})
		if err != nil {
			fmt.Fprintf(os.Stderr, "hypo: %s: %v\n", paths[i], err)
			os.Exit(1)
		}
		switch res.Verdict {
		case hypo.VerdictRefuted:
			refuted++
		case hypo.VerdictInconclusive:
			inconclusive++
		}
		if err := emit(*outDir, res); err != nil {
			fmt.Fprintf(os.Stderr, "hypo: %s: %v\n", res.Name, err)
			os.Exit(1)
		}
	}
	hits, misses := pool.CacheStats()
	fmt.Fprintf(os.Stderr, "hypo: %d hypothesis(es) in %s; %d refuted, %d inconclusive; %d worker(s), %d simulated + %d cached\n",
		len(specs), time.Since(start).Round(time.Millisecond), refuted, inconclusive, pool.Workers(), misses, hits)
	if *gate && refuted > 0 {
		fmt.Fprintf(os.Stderr, "hypo: gate: %d hypothesis(es) Refuted\n", refuted)
		os.Exit(1)
	}
}

// collectSpecs expands the argument list: files pass through, directory
// trees contribute every .yaml/.yml/.json under them, sorted by path so
// the run order (and any shared-pool scheduling) is deterministic.
func collectSpecs(argv []string) ([]string, error) {
	var out []string
	for _, arg := range argv {
		st, err := os.Stat(arg)
		if err != nil {
			return nil, err
		}
		if !st.IsDir() {
			out = append(out, arg)
			continue
		}
		err = filepath.WalkDir(arg, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				return nil
			}
			switch strings.ToLower(filepath.Ext(p)) {
			case ".yaml", ".yml", ".json":
				out = append(out, p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(out)
	return out, nil
}

// emit writes one hypothesis's reports: FINDINGS.md + report.json under
// outDir/<name>/, or the Markdown to stdout when no -out is given.
func emit(outDir string, res *hypo.Result) error {
	if outDir == "" {
		return hypo.WriteFindings(os.Stdout, res)
	}
	dir := filepath.Join(outDir, res.Name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	md, err := os.Create(filepath.Join(dir, "FINDINGS.md"))
	if err != nil {
		return err
	}
	if err := hypo.WriteFindings(md, res); err != nil {
		md.Close()
		return err
	}
	if err := md.Close(); err != nil {
		return err
	}
	js, err := os.Create(filepath.Join(dir, "report.json"))
	if err != nil {
		return err
	}
	if err := hypo.WriteJSON(js, res); err != nil {
		js.Close()
		return err
	}
	return js.Close()
}
