package main

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// poissonSchedule returns the send offsets of n arrivals of an open-loop
// Poisson process at rate per second. It depends only on rng. A fixed count
// (rather than a fixed duration) guarantees the sample size percentiles
// need.
func poissonSchedule(rng *rand.Rand, rate float64, n int) []time.Duration {
	out := make([]time.Duration, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// sample is one open-loop operation. Latency is measured from due, the time
// the schedule said to send it, so a stall delays the requests behind it
// and shows in their latency; late is how far behind the schedule the
// generator actually sent.
type sample struct {
	due, sent, done time.Duration
	err             error
}

func (s sample) latencyMS() float64 { return float64(s.done-s.due) / float64(time.Millisecond) }
func (s sample) lateMS() float64    { return float64(s.sent-s.due) / float64(time.Millisecond) }
func (s sample) serviceMS() float64 { return float64(s.done-s.sent) / float64(time.Millisecond) }

// openLoop sends operation i at start+schedule[i], holding one of slots
// while it is outstanding: when all slots are busy the next send waits for
// one, and that wait counts as lateness. It returns once every operation has
// finished; operations not sent when ctx ends carry ctx's error.
func openLoop(ctx context.Context, schedule []time.Duration, slots chan struct{}, op func(ctx context.Context, i int) error) []sample {
	out := make([]sample, len(schedule))
	var wg sync.WaitGroup
	start := time.Now()
	for i, due := range schedule {
		out[i].due = due
		timer := time.NewTimer(time.Until(start.Add(due)))
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
		}
		if ctx.Err() == nil {
			select {
			case slots <- struct{}{}:
			case <-ctx.Done():
			}
		}
		if err := ctx.Err(); err != nil {
			for j := i; j < len(schedule); j++ {
				out[j] = sample{due: schedule[j], err: err}
			}
			break
		}
		out[i].sent = time.Since(start)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := op(ctx, i)
			out[i].done = time.Since(start)
			out[i].err = err
			<-slots
		}(i)
	}
	wg.Wait()
	return out
}

// closedLoop runs conns workers that each send their next operation as soon
// as the previous one returns, for dur; each operation holds one of slots.
// It returns the operations completed without error, the number that
// failed, and the elapsed wall time.
func closedLoop(ctx context.Context, conns int, dur time.Duration, slots chan struct{}, op func(ctx context.Context, worker, n int) error) (ok, failed int, elapsed time.Duration) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	stop := start.Add(dur)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; time.Now().Before(stop) && ctx.Err() == nil; n++ {
				select {
				case slots <- struct{}{}:
				case <-ctx.Done():
					return
				}
				err := op(ctx, w, n)
				<-slots
				mu.Lock()
				if err != nil {
					failed++
				} else {
					ok++
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return ok, failed, time.Since(start)
}
