package fleetsim

import (
	"time"

	"openvcu/internal/cluster"
	"openvcu/internal/vcu"
	"openvcu/internal/workload"
)

// This file closes the loop on the silent-corruption defense: the same
// park replayed against a sweep of audit budgets, producing the
// escapes-vs-budget frontier (`cmd/fleetsim -audit`). The claim under
// test: a small, budgeted stream of decode-and-verify re-checks — a few
// percent of completed steps — is enough to corner an intermittent
// corrupter that admission screening provably cannot catch, collapsing
// escaped corruption by an order of magnitude.

// AuditSample is one point of the escapes-vs-audit-budget frontier.
type AuditSample struct {
	// Budget is the audited fraction of completed hardware steps.
	Budget float64
	// Escapes is corrupted chunks that shipped (CorruptionsEscaped).
	Escapes int64
	// Audited and AuditFailures count the budget actually spent and the
	// corruption it found.
	Audited       int64
	AuditFailures int64
	// Recalled counts completed-but-unshipped steps voided by the
	// auditor; Convictions counts devices quarantined.
	Recalled    int64
	Convictions int64
	// Completed is finished videos — the liveness cross-check.
	Completed int
}

// AuditFrontierConfig parameterizes the budget sweep.
type AuditFrontierConfig struct {
	Seed uint64
	// Videos arrive in bursts of Burst every auditBurstEvery: queueing
	// keeps completed chunks unshipped long enough for recalls to matter.
	Videos int
	//lint:ignore singleknob benchmark/ledger.go reads it to size its smoke run to one burst
	Burst int
	// Budgets is the sweep, in curve order; 0 is the undefended
	// baseline.
	Budgets []float64
}

// The sweep runs a two-host park for six hours against a corrupter on
// the park's first (hottest) VCU.
const (
	auditHosts      = 2
	auditHorizon    = 6 * time.Hour
	auditBurstEvery = 5 * time.Minute
	// auditDutyCycle is the corrupter's 1-in-N duty cycle.
	auditDutyCycle = 2
	// auditIntegrityCheckProb weakens the inline screen into the regime
	// where corruption meaningfully leaks (the paper's "bad video chunks
	// will escape") and the audit budget is the remaining defense.
	auditIntegrityCheckProb = 0.5
)

// DefaultAuditFrontierConfig sweeps from undefended to a 10% audit
// budget.
func DefaultAuditFrontierConfig() AuditFrontierConfig {
	return AuditFrontierConfig{
		Seed:   11,
		Videos: 150, Burst: 10,
		Budgets: []float64{0, 0.01, 0.02, 0.05, 0.1},
	}
}

// EscapesVsAuditBudget runs one park per budget and returns the
// frontier. Fully deterministic per config: the same seed drives the
// cluster's sampling stream in every run, so points differ only by the
// audit budget.
func EscapesVsAuditBudget(cfg AuditFrontierConfig) []AuditSample {
	var out []AuditSample
	for _, b := range cfg.Budgets {
		ccfg := cluster.DefaultConfig(auditHosts)
		ccfg.Seed = cfg.Seed
		ccfg.IntegrityCheckProb = auditIntegrityCheckProb
		if b > 0 {
			ccfg.Audit = cluster.DefaultAuditConfig()
			ccfg.Audit.Budget = b
		}
		c := cluster.New(ccfg)
		c.Hosts[0].VCUs[0].InjectFaultSpec(vcu.FaultSpec{
			Mode: vcu.FaultCorrupt, DutyCycle: auditDutyCycle, Persistent: true,
		})
		done := 0
		for i := 0; i < cfg.Videos; i++ {
			// Longer uploads (eight chunks) keep the audit token bucket
			// funded; every fourth video is batch so a demoted
			// (batch-only) corrupter keeps producing toward conviction.
			spec := overloadSpec(workload.Arrival{ID: i, Class: workload.ArriveUpload})
			spec.Frames = 1200
			spec.Batch = i%4 == 3
			g := cluster.BuildGraph(spec, 10)
			g.OnDone = func(*cluster.Graph) { done++ }
			at := auditBurstEvery * time.Duration(i/cfg.Burst)
			c.Eng.Schedule(at, func() { c.Submit(g) })
		}
		c.Eng.RunUntil(auditHorizon)
		out = append(out, AuditSample{
			Budget:        b,
			Escapes:       c.Stats.CorruptionsEscaped,
			Audited:       c.Stats.Audit.Audited,
			AuditFailures: c.Stats.Audit.AuditFailures,
			Recalled:      c.Stats.Audit.StepsRecalled,
			Convictions:   c.Stats.Audit.Convictions,
			Completed:     done,
		})
	}
	return out
}
