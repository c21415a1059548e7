package sim

import "time"

// Fluid is a processor-sharing resource: concurrent flows share Capacity
// (in work-units per second, e.g. bytes/s) proportionally to their
// demands, capped at each flow's own demand. It models shared memory or
// network bandwidth: when the sum of demands exceeds capacity every flow
// slows down proportionally, otherwise flows proceed at their natural
// rate.
type Fluid struct {
	eng      *Engine
	capacity float64
	// flows is in start order: append keeps the order and removal closes
	// the gap in place. Float accumulation is not associative, so every
	// walk over the flow set must use this one order for the simulation
	// to be bit-reproducible.
	flows []flow
	// timer fires at the earliest completion, that of flows[next]; it is
	// re-armed by every rebalance, and stopped while no flow has a rate.
	timer Timer
	next  int
	// updatedAt is when every flow's remaining work was last brought up
	// to date: each rebalance drains every flow to now, and a flow
	// started since has drained nothing at its zero rate.
	updatedAt time.Duration

	// TransferredWork integrates completed work for utilization stats.
	TransferredWork float64
}

type flow struct {
	demand    float64 // natural rate, work-units/s
	remaining float64
	rate      float64
	done      func()
}

// NewFluid returns a Fluid resource with the given capacity per second.
func NewFluid(eng *Engine, capacity float64) *Fluid {
	f := &Fluid{eng: eng, capacity: capacity}
	f.timer.Bind(f.complete)
	return f
}

// Start begins a flow of `work` units with natural rate `demand` units/s;
// done fires when the work completes.
func (f *Fluid) Start(work, demand float64, done func()) {
	if work <= 0 {
		if done != nil {
			// Complete asynchronously for deterministic ordering.
			f.eng.Schedule(0, done)
		}
		return
	}
	if demand <= 0 {
		demand = f.capacity
	}
	f.flows = append(f.flows, flow{demand: demand, remaining: work, done: done})
	f.rebalance()
}

// Active returns the number of in-flight flows.
func (f *Fluid) Active() int { return len(f.flows) }

// rebalance recomputes flow rates after membership changes and re-arms
// the timer for the next completion.
func (f *Fluid) rebalance() {
	now := f.eng.Now()
	elapsed := (now - f.updatedAt).Seconds()
	f.updatedAt = now
	var total float64
	for i := range f.flows {
		fl := &f.flows[i]
		// Drain progress at the previous rate.
		drained := fl.rate * elapsed
		if drained > fl.remaining {
			drained = fl.remaining
		}
		fl.remaining -= drained
		f.TransferredWork += drained
		total += fl.demand
	}
	scale := 1.0
	if total > f.capacity {
		scale = f.capacity / total
	}
	// The earliest completion; among equal ETAs the earliest started,
	// which the walk meets first.
	next := -1
	nextAt := time.Duration(1<<62 - 1)
	for i := range f.flows {
		fl := &f.flows[i]
		fl.rate = fl.demand * scale
		if fl.rate <= 0 {
			continue
		}
		eta := now + time.Duration(fl.remaining/fl.rate*float64(time.Second))
		if eta < nextAt {
			nextAt = eta
			next = i
		}
	}
	if next < 0 {
		f.eng.Stop(&f.timer)
		return
	}
	f.next = next
	f.eng.Reset(&f.timer, nextAt-now)
}

// complete finishes flows[next]: membership has not changed since the
// rebalance that armed the timer, so the index still holds.
func (f *Fluid) complete() {
	i := f.next
	f.TransferredWork += f.flows[i].remaining
	done := f.flows[i].done
	last := len(f.flows) - 1
	copy(f.flows[i:], f.flows[i+1:])
	f.flows[last] = flow{}
	f.flows = f.flows[:last]
	f.rebalance()
	if done != nil {
		done()
	}
}
