package benchreg

import (
	"context"
	"fmt"

	"regmutex/internal/saturate"
)

// SaturationPoint is the trajectory's saturation section: the knee —
// the offered load where the target stops absorbing more — is the
// headline metric, with the full ladder attached for inspection. The
// numbers come from the analyzer's virtual-time model (see package
// saturate), so the section is byte-deterministic for a given sweep
// spec and seed; Compare diffs knee metrics across commits the same way
// it diffs cycles_per_sec.
type SaturationPoint struct {
	Spec   string `json:"spec"`
	SpecID string `json:"spec_id"`
	Seed   uint64 `json:"seed"`
	// Target records what the ladder was driven against: "daemon",
	// "router-fleet-3", or the base URL of an external target.
	Target            string                `json:"target"`
	KneeFound         bool                  `json:"knee_found"`
	KneeStep          int                   `json:"knee_step"`
	KneeReason        string                `json:"knee_reason,omitempty"`
	KneeOfferedPerSec float64               `json:"knee_offered_per_sec,omitempty"`
	KneeGoodputPerSec float64               `json:"knee_goodput_per_sec,omitempty"`
	KneeP99Ms         float64               `json:"knee_p99_ms,omitempty"`
	Steps             []saturate.StepResult `json:"steps"`
	// Report is the analyzer's full report, kept for its text rendering
	// (per-class per-stage latency); the trajectory file omits it.
	Report *saturate.Report `json:"-"`
}

// runSweepPhase drives the saturation ladder against Options.URL when
// set, and otherwise against a fresh loopback target: a single gpusimd
// daemon by default, or — with Options.Fleet — a gpusimrouter over
// three healthy instances, so the knee prices in routing overhead and
// cross-instance memo affinity.
func runSweepPhase(spec *saturate.SweepSpec, o Options) (*SaturationPoint, error) {
	var lb loopback
	defer lb.close()
	baseURL := o.URL
	switch {
	case baseURL != "":
	case o.Fleet:
		var urls []string
		for i := 0; i < 3; i++ {
			_, url, err := lb.instance(2, 4096)
			if err != nil {
				return nil, err
			}
			urls = append(urls, url)
		}
		url, err := lb.router(urls)
		if err != nil {
			return nil, err
		}
		baseURL = url
	default:
		_, url, err := lb.instance(4, 4096)
		if err != nil {
			return nil, err
		}
		baseURL = url
	}

	rep, err := saturate.Sweep(context.Background(), spec, saturate.Options{
		BaseURL:  baseURL,
		Compress: o.Compress,
		Logger:   o.Logger,
	})
	if err != nil {
		return nil, fmt.Errorf("benchreg sweep phase: %w", err)
	}
	return saturationPoint(rep, o.sweepTarget()), nil
}

func saturationPoint(rep *saturate.Report, target string) *SaturationPoint {
	sp := &SaturationPoint{
		Spec:              rep.Name,
		SpecID:            rep.SpecID,
		Seed:              rep.Seed,
		Target:            target,
		KneeFound:         rep.KneeFound,
		KneeStep:          rep.KneeStep,
		KneeReason:        rep.KneeReason,
		KneeOfferedPerSec: rep.KneeOfferedPerSec,
		KneeGoodputPerSec: rep.KneeGoodputPerSec,
		Steps:             rep.Steps,
		Report:            rep,
	}
	if rep.KneeFound && rep.KneeStep >= 0 && rep.KneeStep < len(rep.Steps) {
		sp.KneeP99Ms = float64(rep.Steps[rep.KneeStep].P99Us) / 1000
	}
	return sp
}
