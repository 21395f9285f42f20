package verify

import (
	"time"

	"repro/internal/flightrec"
)

// Online runs a Checker continuously against a live Recorder: a background
// goroutine collects each ring's new events on an interval (through a
// cursor, so every event is seen once and losses are detected as gaps) and
// feeds them through the invariant state machine. This is the "leave it on"
// deployment mode: sampling cost is proportional to event volume, the task
// table is bounded, and the recorder side never blocks on the verifier.
type Online struct {
	checker  *Checker
	rec      *flightrec.Recorder
	interval time.Duration
	stop     chan struct{}
	done     chan struct{}
}

// StartOnline attaches a new Checker to rec and starts sampling every
// interval (default 10ms when interval <= 0). Call Stop for a final drain
// and the resulting stats.
func StartOnline(rec *flightrec.Recorder, opts Options, interval time.Duration) *Online {
	if interval <= 0 {
		interval = 10 * time.Millisecond
	}
	o := &Online{
		checker:  New(opts),
		rec:      rec,
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go o.run()
	return o
}

// Checker returns the underlying checker (its Stats may be sampled while
// the online loop runs).
func (o *Online) Checker() *Checker { return o.checker }

// run is the sampling loop.
func (o *Online) run() {
	defer close(o.done)
	var cur flightrec.Cursor
	var buf []flightrec.Event
	t := time.NewTicker(o.interval)
	defer t.Stop()
	for {
		select {
		case <-o.stop:
			o.feed(&cur, &buf)
			return
		case <-t.C:
			o.feed(&cur, &buf)
		}
	}
}

// feed collects and verifies one delta, reusing the event buffer.
func (o *Online) feed(cur *flightrec.Cursor, buf *[]flightrec.Event) {
	events, gap := o.rec.Collect(cur, (*buf)[:0])
	*buf = events
	o.checker.Feed(events, gap)
	o.checker.AdvanceTime(o.rec.Now())
}

// Stop ends the sampling loop after a final drain and returns the final
// checker stats. The drain is terminal: the last batch is judged with no
// later sweep to supply a predecessor still in flight — call Stop only
// once the recorded runtime has quiesced.
func (o *Online) Stop() Stats {
	select {
	case <-o.stop:
	default:
		close(o.stop)
	}
	<-o.done
	o.checker.Flush()
	return o.checker.Stats()
}
