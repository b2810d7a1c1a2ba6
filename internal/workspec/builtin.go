package workspec

// Legacy rebuilds benchreg's pre-spec load phase as a Spec: one ASAP
// cohort of bfs/static requests over a 4-seed pool (so duplicates
// coalesce in memo caches, as the old 4-shape loop's round-robin seeds
// did), paced only by the runner's in-flight window. The request
// counts, scale and SM count are part of the spec's identity, so they
// stay fixed: `-compare` against BENCH points recorded before the spec
// pipeline still measures the same traffic. The quick-mode spec is
// committed as examples/workloads/legacy-quick.yaml; a workspec test
// pins the file to this function so they cannot drift apart.
func Legacy(quick bool) *Spec {
	name, jobs, scale, sms := "legacy", 64, 4, 4
	if quick {
		name, jobs, scale, sms = "legacy-quick", 24, 8, 2
	}
	return &Spec{
		Version: SpecVersion,
		Name:    name,
		Seed:    1,
		Cohorts: []Cohort{{
			Name:     "legacy",
			SLOClass: "legacy",
			Requests: jobs,
			Arrival:  Arrival{Process: ProcessASAP},
			Size: Size{
				Workload: "bfs",
				Policy:   "static",
				Scale:    scale,
				SMs:      sms,
				SeedPool: 4,
			},
		}},
	}
}
