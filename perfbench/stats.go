package main

import (
	"math"
	"sort"
	"time"

	"radiomis/internal/trace"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// tailPercentiles are the candidates for a latency tail, highest last.
var tailPercentiles = []float64{90, 99, 99.9, 99.99}

// tailPercentile returns the highest candidate percentile with at least
// minTail of n samples beyond it, or 0 when even p90 has fewer.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if float64(n)*(1-p/100) >= minTail-1e-9 {
			best = p
		}
	}
	return best
}

// acc accumulates durations.
type acc struct {
	sum time.Duration
	n   int
}

func (a *acc) add(d time.Duration) { a.sum += d; a.n++ }

// meanMs is the mean in milliseconds (0 with no samples).
func (a acc) meanMs() float64 {
	if a.n == 0 {
		return 0
	}
	return ms(a.sum) / float64(a.n)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// attribute splits the wall time of one trace among its spans: at every
// instant of root's interval the time goes to the active spans none of
// whose descendants is active, shared equally when several are. A span
// therefore receives its duration minus the part of it that its children
// cover, and children running in parallel share the time they overlap,
// so the attributions of a trace sum exactly to the root's duration.
// Spans are clipped to the root's interval; a child that outlives its
// parent still counts as the parent's descendant. Passive spans only wait
// for work elsewhere in the trace (an event stream waiting for its job),
// so they get time only at instants when no other span would.
func attribute(root *trace.Span, spans []*trace.Span, passive func(*trace.Span) bool) map[*trace.Span]time.Duration {
	byID := make(map[trace.SpanID]*trace.Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	t0, t1 := root.StartTime, root.EndTime
	var live []*trace.Span
	var cuts []time.Time
	for _, s := range spans {
		if s.EndTime.After(t0) && s.StartTime.Before(t1) && s.EndTime.After(s.StartTime) {
			live = append(live, s)
			cuts = append(cuts, maxTime(s.StartTime, t0), minTime(s.EndTime, t1))
		}
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i].Before(cuts[j]) })

	out := make(map[*trace.Span]time.Duration)
	covered := make(map[*trace.Span]bool)
	var leaves []*trace.Span
	for i := 0; i+1 < len(cuts); i++ {
		a, b := cuts[i], cuts[i+1]
		if !b.After(a) {
			continue
		}
		clear(covered)
		leaves = leaves[:0]
		for _, s := range live {
			if !s.StartTime.After(a) && !s.EndTime.Before(b) {
				for p := byID[s.Parent]; p != nil && !covered[p]; p = byID[p.Parent] {
					covered[p] = true
				}
				leaves = append(leaves, s)
			}
		}
		var active, waiting []*trace.Span
		for _, s := range leaves {
			switch {
			case covered[s]:
			case passive != nil && passive(s):
				waiting = append(waiting, s)
			default:
				active = append(active, s)
			}
		}
		if len(active) == 0 {
			active = waiting
		}
		share := b.Sub(a) / time.Duration(max(1, len(active)))
		for _, s := range active {
			out[s] += share
		}
	}
	return out
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}
