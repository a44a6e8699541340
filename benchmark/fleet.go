package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dbtrules/dbt"
	"dbtrules/internal/telemetry"
	"dbtrules/learn"
	"dbtrules/mine"
	"dbtrules/rules"
	"dbtrules/rules/dist"
)

// One churn episode is a fixed schedule over a fixed set of rules, so the
// population of events is the same on every run and every seed: the
// server starts with churnBase rules, every fourth event quarantines one
// rule published earlier in the episode, and the others publish one more
// rule. The seed only decides the order. The subscriber refetches and
// re-tests the whole store on every publish (about 2 ms a rule), so an
// event costs what the store holds; keeping the store between 40 and 48
// rules keeps the events alike, which a median needs, and an episode
// near 1.5 s.
const (
	churnBase       = 40
	churnEvents     = 16
	quarantineEvery = 4

	// The TestMineDifferentialGate recipe.
	mineRounds = 3
	mineBudget = 192

	deliverTimeout = 10 * time.Second
)

// churnEvent is one publish or quarantine and the subscriber catching up.
type churnEvent struct {
	quarantine bool
	// adoptNS runs from just before the server-side mutation to the
	// return of the first subscriber Run under the new version;
	// deliverNS ends at the deliver callback instead; mutateNS is the
	// store call alone and firstRunNS the Run alone.
	adoptNS, deliverNS, mutateNS, firstRunNS float64
}

// fleetLayers are the readings only the traced run takes.
type fleetLayers struct {
	freezeDirtyNS, freezeCachedNS     []float64
	writeNSPerRule, readNSPerRule     []float64
	selftestNSPerRule                 []float64
	fetches, incremental              int
	snapshotBytes                     int64
	retries                           uint64
	mineProfileNS, mineRoundNS        []float64
	proposed, submitted, verified     int
	added, dedupRefused               int
	dynCoveredBefore, dynCoveredAfter uint64
}

type fleetPhase struct {
	in  *inputs
	o   *oracle
	rng *rand.Rand
	op  int

	events   []churnEvent
	episodes int
	// mineNS is, per repetition, the wall of the three rounds (profile,
	// evict, round) divided by three.
	mineNS []float64
	layers fleetLayers
}

// newFleet prepares the phase that measures the learn -> publish ->
// subscribe -> hot-swap path (churn episodes) and the mining flywheel
// (mining repetitions).
func newFleet(in *inputs, o *oracle) *fleetPhase {
	return &fleetPhase{in: in, o: o, rng: rand.New(rand.NewSource(int64(in.seed)))}
}

func (r *fleetPhase) eventNS(pick func(churnEvent) float64, want func(churnEvent) bool) []float64 {
	var out []float64
	for _, ev := range r.events {
		if want == nil || want(ev) {
			out = append(out, pick(ev))
		}
	}
	return out
}

// delivery is one deliver callback of the subscription.
type delivery struct {
	store *rules.Store
	info  dist.VersionInfo
	at    time.Time
}

// spyTransport exists only in the traced run (nil otherwise): it counts
// the subscriber's requests and records a span per round trip and per
// subscriber callback. It reads each body to its end inside RoundTrip so
// the span covers the transfer, not only the headers.
type spyTransport struct {
	base   http.RoundTripper
	tr     *tracer
	parent atomic.Int64 // span the round trips are children of
	op     atomic.Int64

	mu      sync.Mutex
	fetches int
	bytes   int64
}

func (s *spyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := s.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	name := "dist.http." + req.URL.Path[strings.LastIndex(req.URL.Path, "/")+1:]
	if req.URL.Query().Get("wait") != "" {
		name = "dist.http.longpoll"
	}
	s.mu.Lock()
	if strings.HasSuffix(req.URL.Path, "/snapshot") {
		s.fetches++
		s.bytes += int64(len(body))
	}
	s.mu.Unlock()
	s.span(name, start, time.Now())
	return resp, nil
}

// under makes the spans recorded from now on children of parent.
func (s *spyTransport) under(op, parent int) {
	if s != nil {
		s.op.Store(int64(op))
		s.parent.Store(int64(parent))
	}
}

// span records one call made on the subscriber's goroutine.
func (s *spyTransport) span(name string, start, end time.Time) {
	if s != nil {
		s.tr.add(name, int(s.op.Load()), int(s.parent.Load()), start, end)
	}
}

func (s *spyTransport) snapshotFetches() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fetches
}

// selfTestAll is the whole-snapshot gate dbtrun -rules-watch installs.
func selfTestAll(list []*rules.Rule) error {
	for _, r := range list {
		if err := r.SelfTest(8, 1); err != nil {
			return err
		}
	}
	return nil
}

// subscriber is one engine kept current by a dist.Subscribe loop
// configured like `dbtrun -rules-watch`: breaker on, whole-snapshot
// SelfTest as Verify, every delivered store offered to the engine.
type subscriber struct {
	engine     *dbt.Engine
	deliveries chan delivery
	stop       func() // cancels the subscription and waits for it to return
}

// startSubscriber subscribes a fresh engine for g to the server at addr.
// spy and reg are nil in the untraced run.
func startSubscriber(addr string, g *guest, spy *spyTransport, reg *telemetry.Registry) *subscriber {
	base := &http.Transport{}
	client := dist.NewClient(addr)
	client.EnableBreaker(0, 0)
	client.SetTransport(base)
	if spy != nil {
		spy.base = base
		client.SetTransport(spy)
	}
	sub := &subscriber{
		engine:     dbt.NewEngine(g.arm, dbt.BackendRules, rules.NewStore()),
		deliveries: make(chan delivery),
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	sub.stop = func() {
		cancel()
		<-done
		base.CloseIdleConnections()
	}
	go func() {
		defer close(done)
		opts := &dist.SubscribeOptions{
			Verify: func(list []*rules.Rule) error {
				t0 := time.Now()
				err := selfTestAll(list)
				spy.span("rules.selftest", t0, time.Now())
				return err
			},
			Telemetry: reg,
		}
		// Subscribe returns only ctx's error, after stop cancelled it.
		_ = dist.Subscribe(ctx, client, opts, func(s *rules.Store, info dist.VersionInfo) {
			t0 := time.Now()
			sub.engine.OfferRules(s)
			d := delivery{store: s, info: info, at: time.Now()}
			spy.span("dbt.offer_rules", t0, d.at)
			select {
			case sub.deliveries <- d:
			case <-ctx.Done():
			}
		})
	}()
	return sub
}

// await drains deliveries until the subscriber has caught up with the
// given server version (a publish touching several shards can surface an
// intermediate version first).
func (s *subscriber) await(version uint64) (delivery, bool) {
	timeout := time.NewTimer(deliverTimeout)
	defer timeout.Stop()
	for {
		select {
		case d := <-s.deliveries:
			if d.info.Version >= version {
				return d, true
			}
		case <-timeout.C:
			return delivery{}, false
		}
	}
}

// churnEpisode runs one schedule of publishes and quarantines against a
// fresh in-process server with one subscriber.
func (res *fleetPhase) churnEpisode(tr *tracer) {
	o, rng, op := res.o, res.rng, &res.op
	res.episodes++
	mcf := res.in.guest("mcf")
	// The same churnBase+churnEvents rules for every seed, spread evenly
	// over the canonical order of mcf's leave-one-out rule list.
	all := mcf.loo.All()
	pool := make([]*rules.Rule, churnBase+churnEvents)
	for i := range pool {
		pool[i] = all[i*len(all)/len(pool)]
	}
	extras := pool[churnBase:]
	rng.Shuffle(len(extras), func(i, j int) { extras[i], extras[j] = extras[j], extras[i] })

	server := rules.NewStore()
	server.AddAll(pool[:churnBase])
	srv := dist.NewServer(server)
	o.begin()
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		o.failf("fleet: %v", err)
		return
	}
	defer srv.Close()

	var spy *spyTransport
	var reg *telemetry.Registry
	if tr != nil {
		spy = &spyTransport{tr: tr}
		reg = telemetry.New(0)
		reg.Arm()
	}
	sub := startSubscriber(srv.Addr(), mcf, spy, reg)
	defer sub.stop()
	e := sub.engine
	if _, ok := sub.await(server.Version()); !ok {
		o.failf("fleet: no initial delivery within %s", deliverTimeout)
		return
	}
	// The first Run, under the base rules, warms the engine, so that every
	// event's Run is "first under a new version", not "first ever".
	if _, err := e.Run("bench", mcf.testArgs, maxGuestInstrs); err != nil {
		o.failf("fleet: %v", err)
		return
	}

	var published []int
	for i := 0; i < churnEvents; i++ {
		ev := churnEvent{quarantine: i%quarantineEvery == quarantineEvery-1}
		var slice []*rules.Rule
		var victim int
		if ev.quarantine {
			k := rng.Intn(len(published))
			victim = published[k]
			published = append(published[:k], published[k+1:]...)
		} else {
			slice, extras = extras[:1], extras[1:]
		}
		zeroGlobals(e, mcf.arm)
		before := copyStats(&e.Stats)
		fetchesBefore := 0
		if spy != nil {
			fetchesBefore = spy.snapshotFetches()
		}

		*op++
		o.begin()
		root := tr.begin("fleet.adopt", *op)
		t0 := time.Now()
		mid := tr.begin("rules.store.mutate", *op)
		changed := 0
		if ev.quarantine {
			changed = server.Quarantine(victim)
		} else {
			changed, _ = server.AddAll(slice)
		}
		ev.mutateNS = float64(time.Since(t0))
		tr.end(mid)
		wid := tr.begin("dist.catch_up", *op)
		spy.under(*op, wid)
		d, ok := sub.await(server.Version())
		tr.end(wid)
		spy.under(0, 0)
		if !ok {
			tr.end(root)
			o.failf("fleet event %d: no delivery within %s", i, deliverTimeout)
			return
		}
		ev.deliverNS = float64(d.at.Sub(t0))
		rid := tr.begin("dbt.swap.first_run", *op)
		t1 := time.Now()
		ret, err := e.Run("bench", mcf.testArgs, maxGuestInstrs)
		end := time.Now()
		tr.end(rid)
		tr.end(root)
		ev.firstRunNS = float64(end.Sub(t1))
		ev.adoptNS = float64(end.Sub(t0))

		what := fmt.Sprintf("fleet event %d", i)
		if changed != 1 {
			o.failf("%s: store mutation changed %d rules, want 1", what, changed)
		}
		for _, r := range slice {
			published = append(published, r.ID)
		}
		o.checkRun(ret, err, e.Stats.GuestInstrs-before.GuestInstrs, mcf.testRef, "%s", what)
		got, gerr := dist.StoreHash(d.store)
		want, werr := dist.StoreHash(server)
		if gerr != nil || werr != nil || got != want {
			o.failf("%s: subscriber store hash %s (%v), server %s (%v)", what, got, gerr, want, werr)
		}
		// A local engine on the server's rule set is the second opinion
		// on the hot-swapped engine's counters.
		local := rules.NewStore()
		local.AddAll(server.All())
		le := dbt.NewEngine(mcf.arm, dbt.BackendRules, local)
		if _, err := le.Run("bench", mcf.testArgs, maxGuestInstrs); err != nil {
			o.failf("%s: local engine: %v", what, err)
		}
		if a, b := snapshotJSON(statsDelta(&e.Stats, &before)), snapshotJSON(le.Stats.Snapshot()); a != b {
			o.failf("%s: hot-swapped Run's stats differ from a local engine's:\n got  %s\n want %s", what, a, b)
		}
		res.events = append(res.events, ev)

		if spy == nil {
			continue
		}
		if spy.snapshotFetches() == fetchesBefore {
			res.layers.incremental++
		}
		// The server marshals through All(), never Freeze, so its own
		// freeze cache is dirty after every mutation.
		t0 = time.Now()
		server.Freeze()
		res.layers.freezeDirtyNS = append(res.layers.freezeDirtyNS, float64(time.Since(t0)))
		t0 = time.Now()
		server.Freeze()
		res.layers.freezeCachedNS = append(res.layers.freezeCachedNS, float64(time.Since(t0)))
	}
	if spy == nil {
		return
	}
	spy.mu.Lock()
	res.layers.fetches += spy.fetches
	res.layers.snapshotBytes += spy.bytes
	spy.mu.Unlock()
	res.layers.retries += reg.Counter("dist_retry_total").Load()
	marshalReplay(server.All(), &res.layers, tr)
}

// marshalReplay times the three per-rule costs of a full sync on the
// published list: marshal, parse, self-test.
func marshalReplay(list []*rules.Rule, l *fleetLayers, tr *tracer) {
	if len(list) == 0 {
		return
	}
	n := float64(len(list))
	var buf bytes.Buffer
	id := tr.begin("rules.marshal.write", 0)
	t0 := time.Now()
	werr := rules.WriteRules(&buf, list)
	l.writeNSPerRule = append(l.writeNSPerRule, float64(time.Since(t0))/n)
	tr.end(id)
	if werr != nil {
		return
	}
	id = tr.begin("rules.marshal.read", 0)
	t0 = time.Now()
	parsed, rerr := rules.ReadRules(bytes.NewReader(buf.Bytes()))
	l.readNSPerRule = append(l.readNSPerRule, float64(time.Since(t0))/n)
	tr.end(id)
	if rerr != nil {
		return
	}
	id = tr.begin("rules.selftest", 0)
	t0 = time.Now()
	_ = selfTestAll(parsed) // judged on the subscriber's side of every event
	l.selftestNSPerRule = append(l.selftestNSPerRule, float64(time.Since(t0))/n)
	tr.end(id)
}

// mineRepetition seeds a store with mcf's line-paired rules and runs the
// flywheel for mineRounds rounds. Mining must change nothing the guest
// can observe and must strictly raise dynamic rule coverage.
func (res *fleetPhase) mineRepetition(tr *tracer) {
	o := res.o
	res.op++
	op := res.op
	mcf := res.in.guest("mcf")
	store := rules.NewStore()
	store.AddAll(mcf.learned)
	pair := learn.Pair{Name: mcf.name, Guest: mcf.arm, Host: mcf.x86}
	m := mine.NewMiner(store, &mine.Options{Budget: mineBudget})

	o.begin()
	root := tr.begin("mine.repetition", op)
	var first *mine.ProfileResult
	var total time.Duration
	l := &res.layers
	l.proposed, l.submitted, l.verified, l.added, l.dedupRefused = 0, 0, 0, 0, 0
	for round := 1; round <= mineRounds; round++ {
		id := tr.begin("mine.profile", op)
		t0 := time.Now()
		prof, err := mine.Profile(&pair, store, mcf.testArgs, maxGuestInstrs)
		pd := time.Since(t0)
		tr.end(id)
		if err != nil {
			tr.end(root)
			o.failf("mine profile: %v", err)
			return
		}
		if first == nil {
			first = prof
		}
		id = tr.begin("mine.round", op)
		t0 = time.Now()
		if round > 1 {
			m.EvictCold(prof.RuleHits)
		}
		st := m.Round(&mine.Context{Pairs: []learn.Pair{pair}, Hot: prof.Hot, Store: store})
		rd := time.Since(t0)
		tr.end(id)
		total += pd + rd
		l.mineProfileNS = append(l.mineProfileNS, float64(pd))
		l.mineRoundNS = append(l.mineRoundNS, float64(rd))
		l.proposed += st.Proposed
		l.submitted += st.Submitted
		l.verified += st.Verified
		l.added += st.Added
		l.dedupRefused += st.Duplicates
	}
	tr.end(root)
	res.mineNS = append(res.mineNS, float64(total)/mineRounds)

	after, err := mine.Profile(&pair, store, mcf.testArgs, maxGuestInstrs)
	if err != nil {
		o.failf("mine profile: %v", err)
		return
	}
	o.checkRun(first.Ret, nil, first.Stats.GuestInstrs, mcf.testRef, "mine: before")
	o.checkRun(after.Ret, nil, after.Stats.GuestInstrs, mcf.testRef, "mine: after")
	if after.Stats.DynCovered <= first.Stats.DynCovered {
		o.failf("mine: dynamic coverage did not rise: %d -> %d", first.Stats.DynCovered, after.Stats.DynCovered)
	}
	l.dynCoveredBefore, l.dynCoveredAfter = first.Stats.DynCovered, after.Stats.DynCovered
}
