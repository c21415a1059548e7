package cluster

import (
	"time"
)

// This file is the online output auditor — the continuous fleet-health
// layer of §4.4. Admission gates (burn-in, golden screening) are a
// point-in-time defense: a marginal device that corrupts intermittently
// (vcu.FaultSpec.DutyCycle) deterministically passes them and then
// serves production traffic indefinitely, its corruption silent to
// device telemetry and mostly invisible to the cheap inline integrity
// screen. The auditor closes that hole with a budgeted stream of
// decode-and-verify re-checks over *completed* output: each audited
// chunk is exhaustively re-verified (in real-pixels mode by re-encoding
// the deterministic reference and byte-comparing), audit outcomes drive
// a per-device trust score, and trust threshold crossings walk the
// conviction ladder — demote (batch-only) → quarantine → extended-soak
// re-screening — with the convicted device's unshipped taint window
// recalled and requeued (blast-radius containment in the PR 4
// tradition).

// AuditConfig arms the online output auditor. The zero value (Budget
// == 0) disables it. Budget is the one operating point anyone turns
// (the escapes-vs-budget frontier); the rest of the auditor's tuning is
// the constants below.
type AuditConfig struct {
	// Budget is the fraction of completed hardware transcode steps
	// re-verified by the auditor — the knob of the escapes-vs-budget
	// frontier. 0 disables auditing entirely.
	Budget float64
}

const (
	// auditPeriod is the audit sweep interval on the sim clock.
	auditPeriod = 10 * time.Second
	// trustRecover moves a device's trust toward 1 on a clean audit:
	// trust += trustRecover × (1 − trust).
	trustRecover = 0.1
	// trustFailFactor multiplies trust on a failed audit: ×0.25 from
	// 1.0, so two failed audits convict.
	trustFailFactor = 0.25
	// demoteTrust and convictTrust are the ladder thresholds: below
	// demoteTrust the device serves only batch work; below convictTrust
	// it is quarantined, its taint window recalled, and the extended
	// soak begins.
	demoteTrust  = 0.5
	convictTrust = 0.15
	// soakPeriod spaces the extended-soak re-screening passes of a
	// convicted device; soakOps is each pass's probe length in ops (it
	// must reach a duty cycle to straddle an intermittent's corrupt
	// slot); soakPasses is K, the consecutive clean passes required for
	// exoneration — one pass provably cannot catch an intermittent
	// whose cycle exceeds the probe.
	soakPeriod = time.Minute
	soakOps    = 64
	soakPasses = 3
	// maxTaintWindow caps the per-device unaudited-output list. Steps
	// evicted past the cap leave the recall horizon (counted as
	// TaintEvictions), which bounds a conviction's recall blast radius:
	// StepsRecalled per conviction ≤ maxTaintWindow.
	maxTaintWindow = 64
)

// DefaultAuditConfig returns a production-like auditor: 5% of completed
// steps re-verified.
func DefaultAuditConfig() AuditConfig {
	return AuditConfig{Budget: 0.05}
}

// AuditStats counts output-auditor outcomes. Flat and ==-comparable
// like Stats; counters sum and gauges max under Accumulate.
type AuditStats struct {
	// Audited counts re-verified steps; AuditFailures counts audits
	// that found corruption.
	Audited       int64
	AuditFailures int64
	// Demotions/Repromotions count trust crossings of demoteTrust;
	// Convictions/Exonerations count quarantine entries and soak-earned
	// exits; SoakFailures counts soak passes that caught the fault
	// (condemning the device to the repair pipeline).
	Demotions    int64
	Repromotions int64
	Convictions  int64
	Exonerations int64
	SoakFailures int64
	// StepsRecalled counts completed-but-unshipped steps voided by the
	// auditor (failed audits plus conviction taint windows);
	// RecallEscapes counts taint-window steps that had already shipped
	// and were beyond recall.
	StepsRecalled int64
	RecallEscapes int64
	// TaintEvictions counts steps pushed out of a device's bounded
	// taint window before being audited or recalled.
	TaintEvictions int64
	// RecallWindowMax (gauge) is the largest single-conviction recall —
	// the measured blast radius, provably ≤ maxTaintWindow.
	RecallWindowMax int64 `stat:"max"`
}

// auditor is the output auditor's mutable state on a Cluster.
type auditor struct {
	// completedHW counts audit-eligible (hardware transcode) step
	// completions; audited counts audits spent. The budget invariant is
	// audited ≤ Budget × completedHW — a token bucket that lets a burst
	// of completions fund a burst of audits without ever exceeding the
	// configured fraction.
	completedHW int64
	audited     int64
	// priority holds hedge-winner steps awaiting audit: corrupted ops
	// complete fast, so hedge winners are corruption-enriched and are
	// sampled first.
	priority []*Step
}

// setupAudit arms the auditor when configured.
func (c *Cluster) setupAudit() {
	if c.cfg.Audit.Budget <= 0 {
		return
	}
	c.aud = &auditor{}
	c.every(auditPeriod, c.auditTick)
}

// auditObserve records a completed hardware transcode step into the
// auditor's sampling universe and its device's taint window.
func (c *Cluster) auditObserve(s *Step, cw *clusterWorker) {
	s.completedAt = c.Eng.Now()
	s.completedOn = cw.vcu.ID
	s.audited = false
	c.aud.completedHW++
	if s.hedgeWon {
		c.aud.priority = append(c.aud.priority, s)
	}
	if len(cw.produced) >= maxTaintWindow {
		cw.produced = cw.produced[1:]
		c.Stats.Audit.TaintEvictions++
	}
	cw.produced = append(cw.produced, s)
}

// auditTick spends the accumulated audit allowance on the current most
// suspicious unaudited output.
func (c *Cluster) auditTick() {
	allowance := int64(c.cfg.Audit.Budget*float64(c.aud.completedHW)) - c.aud.audited
	for ; allowance > 0; allowance-- {
		st, cw := c.nextAuditCandidate()
		if st == nil {
			break
		}
		c.auditStep(st, cw)
	}
	c.dispatch()
}

// auditableOn reports whether st is a live audit candidate for device
// cw: still the completed output of this device (a recalled-and-redone
// step overwrites completedOn), not yet audited, and not discarded with
// a shed graph.
func auditableOn(st *Step, cw *clusterWorker) bool {
	return st.State == StepDone && !st.audited && !st.Software &&
		st.completedOn == cw.vcu.ID && (st.graph == nil || !st.graph.Shed)
}

// oldestUnaudited returns cw's oldest live audit candidate, pruning
// stale entries (recalled, redone elsewhere, shed) from the head of its
// taint window.
func (c *Cluster) oldestUnaudited(cw *clusterWorker) *Step {
	for len(cw.produced) > 0 {
		st := cw.produced[0]
		if auditableOn(st, cw) {
			return st
		}
		if st.State == StepDone && !st.audited && st.completedOn == cw.vcu.ID {
			// Shed-graph output: stale but still this device's — just
			// skip it without attesting anything.
			cw.produced = cw.produced[1:]
			continue
		}
		cw.produced = cw.produced[1:]
	}
	return nil
}

// nextAuditCandidate picks the next step to re-verify: hedge winners
// first (corruption-enriched), then the oldest unaudited output of the
// least-trusted device — sampling biased toward low trust, with the
// oldest-completion tie-break approximating fair FIFO coverage while
// every device is equally trusted. Deterministic: workers scan in fixed
// ID order.
func (c *Cluster) nextAuditCandidate() (*Step, *clusterWorker) {
	for len(c.aud.priority) > 0 {
		st := c.aud.priority[0]
		c.aud.priority = c.aud.priority[1:]
		cw := c.byVCU[st.completedOn]
		if cw == nil || !auditableOn(st, cw) {
			continue
		}
		return st, cw
	}
	var bestCW *clusterWorker
	var bestStep *Step
	for _, cw := range c.workers {
		st := c.oldestUnaudited(cw)
		if st == nil {
			continue
		}
		if bestCW == nil || cw.trust < bestCW.trust ||
			(cw.trust == bestCW.trust && st.completedAt < bestStep.completedAt) {
			bestCW, bestStep = cw, st
		}
	}
	return bestStep, bestCW
}

// auditVerify is the decode-and-verify re-check over one completed
// chunk. Unlike the cheap inline screen (IntegrityCheckProb), the
// audit is exhaustive on its sample: it finds the corruption iff it is
// there, so healthy devices can never fail an audit — the
// zero-false-convictions property the game-day asserts. In real-pixels
// mode this re-encodes the chunk's deterministic reference and
// byte-compares (realpixels.go); in modeled mode the step's Corrupted
// flag is ground truth for what a full re-check would find.
func (c *Cluster) auditVerify(st *Step) bool {
	if c.cfg.RealPixels {
		return c.auditVerifyReal(st)
	}
	return !st.Corrupted
}

// auditStep spends one audit on st, updating its device's trust and
// walking the conviction ladder on threshold crossings.
func (c *Cluster) auditStep(st *Step, cw *clusterWorker) {
	a := c.aud
	a.audited++
	c.Stats.Audit.Audited++
	st.audited = true
	if c.auditVerify(st) {
		cw.trust += trustRecover * (1 - cw.trust)
		c.rescore(cw, true)
		// Clean-audit watermark: the taint window restarts after the
		// audited step — earlier unaudited output leaves the recall
		// horizon.
		for i := range cw.produced {
			if cw.produced[i] == st {
				cw.produced = cw.produced[i+1:]
				break
			}
		}
		return
	}
	c.Stats.Audit.AuditFailures++
	if !c.shippedStep(st) {
		// Caught before the delivery boundary: void and redo the chunk.
		c.Stats.CorruptionsCaught++
		c.recallStep(st)
	}
	cw.trust *= trustFailFactor
	c.rescore(cw, false)
}

// shippedStep reports whether a completed transcode step's output has
// passed the delivery boundary: its graph's assemble step started (or
// the graph fully resolved). Shipped output is beyond recall.
func (c *Cluster) shippedStep(st *Step) bool {
	g := st.graph
	if g == nil {
		return true
	}
	if g.remain == 0 {
		return true
	}
	for _, o := range g.Steps {
		if o.Kind == StepAssemble && (o.State == StepRunning || o.State == StepDone) {
			return true
		}
	}
	// No assemble started; a graph without an assemble boundary ships
	// only on resolution, which the remain == 0 check above covers.
	return false
}

// recallStep voids one completed-but-unshipped transcode step and
// requeues it: the producing device's output is untrusted, so the chunk
// must be redone elsewhere before its video can assemble.
func (c *Cluster) recallStep(st *Step) {
	g := st.graph
	if g != nil {
		// A ready-but-not-started assemble goes back to pending: its
		// dependency set is reopening underneath it.
		c.queue.filter(g.Priority, func(q *Step) bool {
			if q.graph != g || q.Kind != StepAssemble || q.State != StepReady {
				return true
			}
			q.State = StepPending
			return false
		})
		g.remain++
	}
	if cw := c.byVCU[st.completedOn]; cw != nil {
		st.tried(cw.vcu.ID)
	}
	st.Corrupted = false
	st.escapeCounted = false
	st.audited = false
	st.hedgeWon = false
	st.Packets = nil
	c.Stats.Audit.StepsRecalled++
	c.failStep(st, nil, errRecalled)
}

// convict contains a device rescore has just convicted (its trust fell
// through convictTrust): in-flight work is voided (worker-generation bump) and pending ops
// aborted, every unshipped step in its taint window is recalled (the
// shipped remainder counted as beyond-recall escapes), and the extended
// soak begins. The device serves nothing until exonerated.
func (c *Cluster) convict(cw *clusterWorker) {
	cw.soakPasses = 0
	c.Stats.Audit.Convictions++
	cw.generation++
	if cw.queueFW != nil {
		cw.queueFW.Close()
		cw.queueFW = nil
	}
	recalled := int64(0)
	for _, st := range cw.produced {
		// Still this device's completed output (a recalled-and-redone
		// step overwrote completedOn) and not already discarded.
		if st.State != StepDone || st.Software || st.completedOn != cw.vcu.ID ||
			(st.graph != nil && st.graph.Shed) {
			continue
		}
		if c.shippedStep(st) {
			c.Stats.Audit.RecallEscapes++
			continue
		}
		c.recallStep(st)
		recalled++
	}
	cw.produced = nil
	if recalled > c.Stats.Audit.RecallWindowMax {
		c.Stats.Audit.RecallWindowMax = recalled
	}
	c.scheduleSoak(cw)
	c.dispatch()
}

// scheduleSoak arms the next extended-soak pass for a convicted device.
func (c *Cluster) scheduleSoak(cw *clusterWorker) {
	c.Eng.Schedule(soakPeriod, func() { c.soakTick(cw) })
}

// soakTick runs one extended-soak re-screening pass (K consecutive
// clean passes exonerate; a single failure condemns). The soak probe is
// vcu.ExtendedCheck: long enough to straddle an intermittent's duty
// cycle, and cumulative across passes — which is why K consecutive
// passes, not one longer pass, is the exit criterion: each pass attests
// one window, and a marginal device's corrupt slot must miss all K.
func (c *Cluster) soakTick(cw *clusterWorker) {
	if !cw.soaking() {
		return
	}
	if !cw.vcu.ExtendedCheck(soakOps) {
		// The soak reproduced the fault: the conviction stands. Disable
		// the device so the existing repair lifecycle (faultScan →
		// sendToRepair → readmitHost) owns it from here.
		c.Stats.Audit.SoakFailures++
		cw.soakPasses = 0
		c.disableDevice(cw)
		return
	}
	cw.soakPasses++
	if cw.soakPasses >= soakPasses {
		c.exonerate(cw)
		return
	}
	c.scheduleSoak(cw)
}

// exonerate returns a convicted device to service after K consecutive
// clean soak passes: trust restored, worker restarted through the
// normal golden-screened path.
func (c *Cluster) exonerate(cw *clusterWorker) {
	c.clearRecord(cw, evExonerate)
	c.Stats.Audit.Exonerations++
	c.startWorker(cw)
	c.dispatch()
}
