package cluster

import (
	"testing"
	"time"

	"openvcu/internal/vcu"
)

// auditScenario runs the silent-corruption game day: VCU 0 carries an
// intermittent (duty-cycle) corrupter — the manufacturing escape that
// deterministically passes golden screening and reports no telemetry —
// while a stream of upload and batch traffic flows through a two-host
// park. budget arms the output auditor; 0 runs the undefended baseline.
// The inline screen is weakened as in TestBlackHolingMitigation so the
// corruption meaningfully leaks: the regime where the paper's "bad
// video chunks escape" and the audit budget is the remaining defense.
func auditScenario(budget float64, videos int) (*Cluster, int) {
	return auditScenarioSeed(11, budget, videos)
}

// auditScenarioSeed is auditScenario at a chosen cluster seed.
func auditScenarioSeed(seed uint64, budget float64, videos int) (*Cluster, int) {
	cfg := DefaultConfig(2)
	cfg.Seed = seed
	cfg.IntegrityCheckProb = 0.5
	if budget > 0 {
		cfg.Audit = DefaultAuditConfig()
		cfg.Audit.Budget = budget
	}
	c := newScenario(cfg)
	c.Hosts[0].VCUs[0].InjectFaultSpec(vcu.FaultSpec{
		Mode: vcu.FaultCorrupt, DutyCycle: 2, Persistent: true,
	})

	done := 0
	for i := 0; i < videos; i++ {
		spec := uploadSpec(i)
		// Longer videos: more chunks per graph keeps the audit token
		// bucket funded. Every fourth video is batch so a demoted
		// (batch-only) device keeps producing — the ladder's middle
		// rung stays exercised on the way to conviction.
		spec.Frames = 1200
		if i%4 == 3 {
			spec.Batch = true
		}
		g := BuildGraph(spec, 10)
		g.OnDone = func(*Graph) { done++ }
		// Bursty arrivals (ten videos at once): chunks queue behind each
		// other, so a corrupted chunk sits completed-but-unshipped while
		// its siblings wait — the window where audits and convictions
		// can still recall it.
		at := 5 * time.Minute * time.Duration(i/10)
		c.Eng.Schedule(at, func() { c.Submit(g) })
	}
	c.Eng.RunUntil(6 * time.Hour)
	return c, done
}

// TestAuditGameDay is the tentpole end-to-end check of the output
// auditor: with auditing off the intermittent corrupter leaks a steady
// stream of escaped corruption; with a ≤5% audit budget the escapes
// drop ≥10×, the corrupter walks the demote → quarantine ladder, no
// healthy device is ever suspected, and the conviction's recall blast
// radius stays inside the bounded taint window.
func TestAuditGameDay(t *testing.T) {
	const videos = 150
	base, baseDone := auditScenario(0, videos)
	aud, audDone := auditScenario(0.05, videos)

	// Liveness first: recalls and conviction must not strand videos.
	if baseDone != videos || audDone != videos {
		t.Fatalf("completed %d/%d (baseline) and %d/%d (audited) videos; audited stats %+v",
			baseDone, videos, audDone, videos, aud.Stats)
	}
	// The undefended baseline leaks enough to be worth defending
	// against, and the auditor never runs.
	if base.Stats.CorruptionsEscaped < 10 {
		t.Fatalf("baseline leaked only %d escapes — scenario too benign to prove anything",
			base.Stats.CorruptionsEscaped)
	}
	if base.Stats.Audit.Audited != 0 {
		t.Fatal("auditor ran with a zero budget")
	}
	// The headline claim: ≥10× fewer escapes at a ≤5% budget.
	if aud.Stats.CorruptionsEscaped*10 > base.Stats.CorruptionsEscaped {
		t.Fatalf("escapes %d -> %d: less than the required 10x reduction",
			base.Stats.CorruptionsEscaped, aud.Stats.CorruptionsEscaped)
	}
	// The budget is a hard ceiling: audits spent never exceed the
	// configured fraction of completed hardware steps.
	if spent, cap := aud.aud.audited, int64(0.05*float64(aud.aud.completedHW)); spent > cap {
		t.Fatalf("audit budget exceeded: %d audits > %d allowed (%d completions)",
			spent, cap, aud.aud.completedHW)
	}
	// The corrupter walked the whole ladder: demoted, then convicted,
	// and — because the extended soak reproduces the fault (a 64-op
	// probe always straddles a 2-op duty cycle) — still quarantined at
	// the end of the day.
	st := aud.Stats.Audit
	if st.Demotions == 0 || st.Convictions == 0 {
		t.Fatalf("corrupter not convicted: %+v", st)
	}
	if got := aud.ConvictedVCUs(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("convicted set %v, want [0]", got)
	}
	if st.SoakFailures == 0 {
		t.Fatalf("extended soak never reproduced the intermittent fault: %+v", st)
	}
	// Zero false convictions: the audit re-check is exhaustive on its
	// sample, so a healthy device can never fail one — every other
	// device ends the day at full trust, serving all classes.
	for _, cw := range aud.workers {
		if cw.vcu.ID == 0 {
			continue
		}
		if cw.trust != 1 || cw.standing != trusted {
			t.Fatalf("healthy VCU %d suspected: trust=%v standing=%v",
				cw.vcu.ID, cw.trust, cw.standing)
		}
	}
	// Containment accounting: the conviction recalled its taint window,
	// and no single recall exceeded the configured bound.
	if st.StepsRecalled == 0 {
		t.Fatalf("conviction recalled nothing: %+v", st)
	}
	if max := int64(maxTaintWindow); st.RecallWindowMax > max {
		t.Fatalf("recall blast radius %d exceeds taint window %d", st.RecallWindowMax, max)
	}
	t.Logf("escapes: %d (audit off) -> %d (5%% budget); audits=%d/%d completions",
		base.Stats.CorruptionsEscaped, aud.Stats.CorruptionsEscaped,
		st.Audited, aud.aud.completedHW)
	t.Logf("ladder: demotions=%d repromotions=%d convictions=%d soak-failures=%d",
		st.Demotions, st.Repromotions, st.Convictions, st.SoakFailures)
	t.Logf("containment: recalled=%d recall-escapes=%d window-max=%d evictions=%d",
		st.StepsRecalled, st.RecallEscapes, st.RecallWindowMax, st.TaintEvictions)
}

// TestAuditDeterministic asserts the whole audit lifecycle — sampling,
// trust updates, recalls, conviction, soak — is reproducible: two runs
// from the same seed produce byte-identical Stats.
func TestAuditDeterministic(t *testing.T) {
	run := func() (Stats, int) {
		c, done := auditScenario(0.05, 40)
		return c.Stats, done
	}
	s1, d1 := run()
	s2, d2 := run()
	if s1 != s2 {
		t.Fatalf("same seed diverged:\n  run1 %+v\n  run2 %+v", s1, s2)
	}
	if d1 != d2 {
		t.Fatalf("completion counts diverged: %d vs %d", d1, d2)
	}
}

// TestAccumulateAuditStats pins the regional roll-up semantics of the
// new audit counters: every counter sums, the blast-radius gauge takes
// the max, and the new failure class and hedge-veto counters ride along.
func TestAccumulateAuditStats(t *testing.T) {
	var a, b Stats
	a.Audit = AuditStats{
		Audited: 10, AuditFailures: 4, Demotions: 3, Repromotions: 2,
		Convictions: 1, Exonerations: 1, SoakFailures: 2,
		StepsRecalled: 7, RecallEscapes: 5, TaintEvictions: 11,
		RecallWindowMax: 6,
	}
	a.HedgesVetoed = 2
	a.Failures.Recalled = 7
	b.Audit = AuditStats{
		Audited: 5, AuditFailures: 1, Demotions: 1, Repromotions: 1,
		Convictions: 2, Exonerations: 0, SoakFailures: 1,
		StepsRecalled: 3, RecallEscapes: 2, TaintEvictions: 4,
		RecallWindowMax: 9,
	}
	b.HedgesVetoed = 3
	b.Failures.Recalled = 3

	a.Accumulate(b)
	want := AuditStats{
		Audited: 15, AuditFailures: 5, Demotions: 4, Repromotions: 3,
		Convictions: 3, Exonerations: 1, SoakFailures: 3,
		StepsRecalled: 10, RecallEscapes: 7, TaintEvictions: 15,
		RecallWindowMax: 9, // gauge: max, not sum
	}
	if a.Audit != want {
		t.Fatalf("audit roll-up %+v, want %+v", a.Audit, want)
	}
	if a.HedgesVetoed != 5 {
		t.Fatalf("HedgesVetoed %d, want 5", a.HedgesVetoed)
	}
	if a.Failures.Recalled != 10 {
		t.Fatalf("Failures.Recalled %d, want 10", a.Failures.Recalled)
	}
	// The gauge keeps the larger side regardless of accumulate order.
	var c Stats
	c.Audit.RecallWindowMax = 9
	c.Accumulate(Stats{Audit: AuditStats{RecallWindowMax: 6}})
	if c.Audit.RecallWindowMax != 9 {
		t.Fatalf("gauge regressed to %d", c.Audit.RecallWindowMax)
	}
}

// TestRegionAuditRollUp runs two audited clusters — each with its own
// intermittent corrupter — under one region and checks the regional
// Stats carry the audit counters field by field (a manually summed
// cross-check, so a field forgotten in Accumulate fails here).
func TestRegionAuditRollUp(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.IntegrityCheckProb = 0.5
	cfg.Audit = DefaultAuditConfig()
	cfg.Audit.Budget = 0.5 // audit aggressively: a short run must see activity
	r := NewRegion(cfg, 2)
	for _, c := range r.Clusters {
		c.Hosts[0].VCUs[0].InjectFaultSpec(vcu.FaultSpec{
			Mode: vcu.FaultCorrupt, DutyCycle: 2, Persistent: true,
		})
	}
	for i := 0; i < 8; i++ {
		if err := r.Submit(i%2, regionVideo(i)); err != nil {
			t.Fatal(err)
		}
	}
	r.Eng.RunUntil(time.Hour)

	var audited, failures int64
	var windowMax int64
	for _, c := range r.Clusters {
		audited += c.Stats.Audit.Audited
		failures += c.Stats.Audit.AuditFailures
		if c.Stats.Audit.RecallWindowMax > windowMax {
			windowMax = c.Stats.Audit.RecallWindowMax
		}
	}
	if audited == 0 || failures == 0 {
		t.Fatalf("scenario produced no audit activity: audited=%d failures=%d", audited, failures)
	}
	s := r.Stats()
	if s.Audit.Audited != audited || s.Audit.AuditFailures != failures ||
		s.Audit.RecallWindowMax != windowMax {
		t.Fatalf("regional audit roll-up %+v; want audited=%d failures=%d windowMax=%d",
			s.Audit, audited, failures, windowMax)
	}
}

// TestHedgeDoesNotLaunderCorruption is the regression test for the
// hedge-settlement laundering hole: corrupted ops complete fast, so a
// corrupter racing a hedge tends to finish first — and first-wins
// settlement used to abort the healthy sibling and crown the corrupted
// result. Settlement is now verification-aware: a corrupted first
// finisher with a live sibling is vetoed (HedgesVetoed) and the healthy
// copy ships instead.
func TestHedgeDoesNotLaunderCorruption(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.HedgeMultiplier = 2
	cfg.IntegrityCheckProb = 1 // make the veto and inline screens deterministic
	c := New(cfg)
	// VCU 0 (first-fit's primary choice) is a straggler — slow enough to
	// trigger the hedge, fast enough to beat the watchdog. Every other
	// device corrupts always-on, so wherever the hedge lands it returns
	// a fast corrupted result first.
	c.Hosts[0].VCUs[0].InjectFaultSpec(vcu.FaultSpec{Mode: vcu.FaultSlow, SlowFactor: 8})
	for _, v := range c.Hosts[0].VCUs[1:] {
		v.InjectFault(vcu.FaultCorrupt, 0)
	}
	done := 0
	spec := uploadSpec(1)
	spec.Frames = spec.ChunkFrames // one chunk: a single primary/hedge race
	g := BuildGraph(spec, 10)
	g.OnDone = func(*Graph) { done++ }
	c.Submit(g)
	c.Eng.RunUntil(2 * time.Hour)

	if done != 1 {
		t.Fatalf("video did not complete; stats %+v", c.Stats)
	}
	if c.Stats.HedgesLaunched == 0 {
		t.Fatal("straggler never hedged — scenario did not race")
	}
	if c.Stats.HedgesVetoed == 0 {
		t.Fatalf("corrupted first finisher settled unchallenged; stats %+v", c.Stats)
	}
	if g.Corrupted() || c.Stats.CorruptionsEscaped != 0 {
		t.Fatalf("corruption laundered through hedge settlement; stats %+v", c.Stats)
	}
}

// TestConvictionUnderARunningStep: a device convicted while a step's
// decode is on its cores has no firmware queue left when the decode
// finishes; the step's encodes must fail over like on any closed queue,
// not dereference the missing one.
func TestConvictionUnderARunningStep(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Audit = DefaultAuditConfig()
	c := New(cfg)
	done := 0
	g := BuildGraph(uploadSpec(1), 10)
	g.OnDone = func(*Graph) { done++ }
	c.Submit(g)
	c.Eng.RunUntil(10 * time.Millisecond) // decodes in flight on VCU 0
	c.workers[0].trust = 0
	c.rescore(c.workers[0], false)
	c.Eng.RunUntil(time.Hour)
	if done != 1 {
		t.Fatalf("video did not complete around the convicted device; stats %+v", c.Stats)
	}
}
