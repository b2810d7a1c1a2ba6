package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"

	"regmutex/internal/obs"
)

// FleetSpans merges the router's own routing spans for one trace with
// the lifecycle spans each instance recorded for it (fetched from
// GET /v1/spans?trace=), in canonical order. Each fetched span's Proc is
// the instance's name, so Perfetto shows one process lane per instance.
// Every instance mints IDs from the same prefix, so each fetched span's
// ID, and any Parent naming a span of the same fetch, is qualified as
// "<instance>/<id>"; parents naming router spans are kept as they are.
// Instances that cannot be reached are skipped — a trace must remain
// exportable after the instance that served (or dropped) the job died;
// the router-side attempt and failover spans still tell that story.
func (r *Router) FleetSpans(ctx context.Context, trace string) []obs.Span {
	spans := r.spans.ByTrace(trace)
	for _, in := range r.insts {
		fetched, err := fetchSpans(ctx, r.probeClient, in.base, trace)
		if err != nil {
			r.log.Debug("span fetch failed", "instance", in.name, "trace", trace, "err", err)
			continue
		}
		local := make(map[string]bool, len(fetched))
		for _, sp := range fetched {
			local[sp.ID] = true
		}
		for _, sp := range fetched {
			sp.Proc = in.name
			sp.ID = in.name + "/" + sp.ID
			if local[sp.Parent] {
				sp.Parent = in.name + "/" + sp.Parent
			}
			spans = append(spans, sp)
		}
	}
	obs.SortSpans(spans)
	return spans
}

// fetchSpans pulls one instance's spans for a trace.
func fetchSpans(ctx context.Context, hc *http.Client, base, trace string) ([]obs.Span, error) {
	u := base + "/v1/spans?trace=" + url.QueryEscape(trace)
	req, err := http.NewRequestWithContext(ctx, "GET", u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", u, resp.StatusCode)
	}
	var spans []obs.Span
	if err := json.NewDecoder(resp.Body).Decode(&spans); err != nil {
		return nil, err
	}
	return spans, nil
}
