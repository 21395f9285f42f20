package serve

import (
	"math"
	"testing"
)

// base returns admission inputs that admit: a light tenant on an idle
// one-worker pool, so the lane bounds are 256 (data) and 64 (telemetry)
// and the control reserve starts at depth 12 of 16. Each cell perturbs
// exactly the dimensions it is about.
func base() admissionInputs {
	return admissionInputs{
		lane:        LaneData,
		cost:        4,
		quota:       64,
		inFlight:    0,
		queueDepth:  0,
		queueCap:    16,
		poolBacklog: 0,
		workers:     1,
	}
}

// ladderCells walks the admission state machine through every verdict ×
// backlog level × quota state × queue state × lane cell that matters.
var ladderCells = []struct {
	name    string
	mutate  func(*admissionInputs)
	verdict Verdict
	reason  string
}{
	// The happy path, per lane.
	{"admit_data", func(in *admissionInputs) {}, VerdictAdmit, "admit"},
	{"admit_control", func(in *admissionInputs) { in.lane = LaneControl }, VerdictAdmit, "admit"},
	{"admit_telemetry", func(in *admissionInputs) { in.lane = LaneTelemetry }, VerdictAdmit, "admit"},

	// Draining wins over everything, every lane.
	{"drain_data", func(in *admissionInputs) { in.draining = true }, VerdictUnavailable, "draining"},
	{"drain_control", func(in *admissionInputs) { in.draining = true; in.lane = LaneControl }, VerdictUnavailable, "draining"},
	{"drain_over_quota", func(in *admissionInputs) { in.draining = true; in.cost = 1000 }, VerdictUnavailable, "draining"},

	// Quota: a graph that can never fit rejects; one that fits once
	// work drains defers; boundary cases land exactly.
	{"graph_larger_than_quota", func(in *admissionInputs) { in.cost = 65 }, VerdictReject, "graph-exceeds-quota"},
	{"graph_exactly_quota", func(in *admissionInputs) { in.cost = 64 }, VerdictAdmit, "admit"},
	{"quota_exhausted_defers", func(in *admissionInputs) { in.inFlight = 61 }, VerdictDefer, "quota"},
	{"quota_exact_fit_admits", func(in *admissionInputs) { in.inFlight = 60 }, VerdictAdmit, "admit"},
	{"quota_defers_even_control", func(in *admissionInputs) { in.inFlight = 64; in.lane = LaneControl }, VerdictDefer, "quota"},

	// Queue capacity is a hard edge for every lane; only control gets
	// that close to it.
	{"queue_full_rejects", func(in *admissionInputs) { in.queueDepth = 16 }, VerdictReject, "queue-full"},
	{"queue_full_rejects_control", func(in *admissionInputs) { in.queueDepth = 16; in.lane = LaneControl }, VerdictReject, "queue-full"},
	{"queue_almost_full_admits", func(in *admissionInputs) { in.queueDepth = 15; in.lane = LaneControl }, VerdictAdmit, "admit"},

	// The control reserve (the last quarter, depth ≥ 12 of 16) defers
	// data and telemetry, not control, and holds nothing below it.
	{"backpressure_defers_data", func(in *admissionInputs) { in.queueDepth = 12 }, VerdictDefer, "backpressure"},
	{"backpressure_defers_telemetry", func(in *admissionInputs) { in.queueDepth = 12; in.lane = LaneTelemetry }, VerdictDefer, "backpressure"},
	{"backpressure_spares_control", func(in *admissionInputs) { in.queueDepth = 12; in.lane = LaneControl }, VerdictAdmit, "admit"},
	{"below_reserve_admits_data", func(in *admissionInputs) { in.queueDepth = 11 }, VerdictAdmit, "admit"},

	// Pool backlog at telemetry's bound (64 per worker): telemetry defers,
	// data and control ride.
	{"soft_backlog_admits_data", func(in *admissionInputs) { in.poolBacklog = 64 }, VerdictAdmit, "admit"},
	{"soft_backlog_defers_telemetry", func(in *admissionInputs) { in.poolBacklog = 64; in.lane = LaneTelemetry }, VerdictDefer, "overload"},
	{"below_soft_admits_telemetry", func(in *admissionInputs) { in.poolBacklog = 63; in.lane = LaneTelemetry }, VerdictAdmit, "admit"},
	{"soft_backlog_scales_with_workers", func(in *admissionInputs) { in.poolBacklog = 64; in.workers = 2; in.lane = LaneTelemetry }, VerdictAdmit, "admit"},

	// Pool backlog at data's bound (256 per worker): data and telemetry
	// defer, control still admits — however large the backlog.
	{"hard_backlog_defers_data", func(in *admissionInputs) { in.poolBacklog = 256 }, VerdictDefer, "overload"},
	{"hard_backlog_defers_telemetry", func(in *admissionInputs) { in.poolBacklog = 256; in.lane = LaneTelemetry }, VerdictDefer, "overload"},
	{"hard_backlog_admits_control", func(in *admissionInputs) { in.poolBacklog = 256; in.lane = LaneControl }, VerdictAdmit, "admit"},
	{"below_hard_admits_data", func(in *admissionInputs) { in.poolBacklog = 255 }, VerdictAdmit, "admit"},
	{"control_ignores_any_backlog", func(in *admissionInputs) { in.poolBacklog = 1 << 40; in.lane = LaneControl }, VerdictAdmit, "admit"},

	// Severity ordering: harder rules fire first when several hold.
	{"queue_full_beats_quota_defer", func(in *admissionInputs) { in.queueDepth = 16; in.inFlight = 64 }, VerdictReject, "queue-full"},
	{"never_fits_beats_queue_full", func(in *admissionInputs) { in.cost = 65; in.queueDepth = 16 }, VerdictReject, "graph-exceeds-quota"},
	{"hard_overload_beats_quota_defer", func(in *admissionInputs) { in.poolBacklog = 256; in.inFlight = 64 }, VerdictDefer, "overload"},
	{"soft_overload_beats_quota_defer", func(in *admissionInputs) { in.poolBacklog = 64; in.inFlight = 64; in.lane = LaneTelemetry }, VerdictDefer, "overload"},
	{"quota_defer_beats_backpressure", func(in *admissionInputs) { in.inFlight = 64; in.queueDepth = 12 }, VerdictDefer, "quota"},
}

// TestAdmissionLadder checks every ladder cell as a pure function — no
// server, no clock, no sleeps.
func TestAdmissionLadder(t *testing.T) {
	for _, c := range ladderCells {
		t.Run(c.name, func(t *testing.T) {
			in := base()
			c.mutate(&in)
			d := decide(in)
			if d.verdict != c.verdict || d.reason != c.reason {
				t.Fatalf("decide(%+v) = %s/%s, want %s/%s", in, d.verdict, d.reason, c.verdict, c.reason)
			}
		})
	}
}

// FuzzDecide checks the ladder's shape for any inputs: more pool backlog,
// more tokens in flight, a deeper queue or a drain never make a verdict
// milder (admit < defer < reject < unavailable), so nothing moves a defer
// or reject back to admit; control is never deferred for backlog or the
// reserve; and a reject is only ever for what waiting cannot fix. The
// fields are narrow so that no sum overflows.
func FuzzDecide(f *testing.F) {
	for _, c := range ladderCells {
		in := base()
		c.mutate(&in)
		f.Add(in.draining, uint8(in.lane), uint32(in.cost), uint32(in.quota), uint32(in.inFlight),
			uint16(in.queueDepth), uint16(in.queueCap), uint32(min(in.poolBacklog, math.MaxUint32)), uint8(in.workers),
			uint32(1), uint32(1), uint16(1))
	}
	f.Fuzz(func(t *testing.T, draining bool, lane uint8, cost, quota, inFlight uint32,
		depth, capacity uint16, backlog uint32, workers uint8, moreBacklog, moreInFlight uint32, moreDepth uint16) {
		in := admissionInputs{
			draining:    draining,
			lane:        Lane(lane % laneCount),
			cost:        int64(cost),
			quota:       int64(quota),
			inFlight:    int64(inFlight),
			queueDepth:  int(depth),
			queueCap:    int(capacity),
			poolBacklog: int64(backlog),
			workers:     int64(workers),
		}
		d := decide(in)
		switch {
		case d.verdict == VerdictReject && d.reason != "graph-exceeds-quota" && d.reason != "queue-full":
			t.Fatalf("decide(%+v) rejects for %q", in, d.reason)
		case d.reason == "overload" && d.verdict != VerdictDefer:
			t.Fatalf("decide(%+v) = %s/overload", in, d.verdict)
		case in.lane == LaneControl && (d.reason == "overload" || d.reason == "backpressure"):
			t.Fatalf("decide(%+v) defers control for %q", in, d.reason)
		}
		for _, raise := range []struct {
			what string
			f    func(*admissionInputs)
		}{
			{"pool backlog", func(r *admissionInputs) { r.poolBacklog += int64(moreBacklog) }},
			{"in-flight tokens", func(r *admissionInputs) { r.inFlight += int64(moreInFlight) }},
			{"queue depth", func(r *admissionInputs) { r.queueDepth += int(moreDepth) }},
			{"draining", func(r *admissionInputs) { r.draining = true }},
		} {
			r := in
			raise.f(&r)
			if dr := decide(r); dr.verdict < d.verdict {
				t.Fatalf("raising %s moved %s/%s to %s/%s: %+v → %+v",
					raise.what, d.verdict, d.reason, dr.verdict, dr.reason, in, r)
			}
		}
	})
}

// TestVerdictStrings pins the metrics-label names.
func TestVerdictStrings(t *testing.T) {
	want := map[Verdict]string{
		VerdictAdmit:       "admit",
		VerdictDefer:       "defer",
		VerdictReject:      "reject",
		VerdictUnavailable: "unavailable",
	}
	for v, s := range want {
		if v.String() != s {
			t.Errorf("%d.String() = %q, want %q", v, v.String(), s)
		}
	}
}

// TestParseLane pins the wire names and the default.
func TestParseLane(t *testing.T) {
	for _, c := range []struct {
		in   string
		lane Lane
		ok   bool
	}{
		{"control", LaneControl, true},
		{"data", LaneData, true},
		{"", LaneData, true},
		{"telemetry", LaneTelemetry, true},
		{"bulk", LaneData, false},
	} {
		l, err := parseLane([]byte(c.in))
		if (err == nil) != c.ok || (c.ok && l != c.lane) {
			t.Errorf("parseLane(%q) = %v, %v; want %v, ok=%v", c.in, l, err, c.lane, c.ok)
		}
	}
	if LaneControl.Priority() <= LaneData.Priority() || LaneData.Priority() <= LaneTelemetry.Priority() {
		t.Errorf("lane priorities not strictly ordered: %d %d %d",
			LaneControl.Priority(), LaneData.Priority(), LaneTelemetry.Priority())
	}
}

// TestPoolHintOrder: the pool hint is lexicographic in (lane, launch order)
// and leaves the runtime its +1 — for every pair of jobs in the table a
// higher lane outranks a lower one whatever their launch numbers, an older
// job outranks a younger one of its lane, and the younger one's boosted
// tasks (hint+1) still rank below the older one's plain ones. The launch
// numbers reach 2^38+1: no pair in the table is 2^39 apart, the distance at
// which a lane's band would meet the next one's.
func TestPoolHintOrder(t *testing.T) {
	launches := []uint64{0, 1, 1 << 38, 1<<38 + 1}
	for hi := LaneControl; hi < laneCount; hi++ {
		for _, a := range launches {
			for _, b := range launches {
				for lo := hi + 1; lo < laneCount; lo++ {
					if poolHint(hi, a) <= poolHint(lo, b)+1 {
						t.Errorf("%s job %d (hint %d) does not outrank %s job %d (hint %d, boosted +1)",
							hi, a, poolHint(hi, a), lo, b, poolHint(lo, b))
					}
				}
				if a < b && poolHint(hi, a) <= poolHint(hi, b)+1 {
					t.Errorf("%s: job %d (hint %d) does not outrank younger job %d (hint %d, boosted +1)",
						hi, a, poolHint(hi, a), b, poolHint(hi, b))
				}
			}
		}
	}
}
