package settle

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// Settlement network addresses. The coordinator and shards live in the
// sparse range (like the fpss bank at 1<<20); account agents sit at
// their dense identity addresses.
const coordAddr sim.Addr = 1 << 19

func shardAddr(id ShardID) sim.Addr { return coordAddr + 1 + sim.Addr(id) }
func agentAddr(a Account) sim.Addr  { return sim.Addr(a) }

// Flag reasons. Stall is the one *inferred* flag (a timeout, not a
// message), so it is the one the engine retracts when loss could
// explain the silence — the settlement-layer MaxTolerableLoss
// contract.
const (
	ReasonStallCoSign = "withheld co-sign through full retry budget"
	ReasonExitWindow  = "requested account exit inside the 2PC window"
	ReasonWrongHome   = "local-credit claim at wrong home shard"
	ReasonDoubleClaim = "duplicate local-credit claim"
)

// Protocol payloads. Every party holds the batch, so a message names a
// transfer by its index Tx instead of carrying its accounts and amount.
type (
	coSignReq  struct{ Tx int }
	coSignMsg  struct{ Tx int }
	exitReq    struct{ Account Account }
	claimReq   struct{ Account Account }
	prepareMsg struct{ Tx int }
	voteMsg    struct {
		Tx    int
		Shard ShardID
		OK    bool
	}
	decisionMsg struct {
		Tx     int
		Commit bool
	}
	ackMsg struct {
		Tx    int
		Shard ShardID
	}
	resolveMsg struct {
		Tx    int
		Shard ShardID
	}
	tickMsg struct{ Seq int64 }
)

// txPhase is a transaction's coordinator-side state.
type txPhase uint8

const (
	phCoSign  txPhase = iota // waiting for the debtor's co-sign
	phPrepare                // waiting for participant votes
	phDecided                // decision logged, waiting for acks
	phDone                   // fully acked (or given up on a dead shard)
)

// txState is the coordinator's volatile per-transfer bookkeeping; it
// is rebuilt from the decision WAL on recovery.
type txState struct {
	phase       txPhase
	wait        int64 // ticks until the next retransmission
	attempt     int
	cosignEpoch int64 // coordinator restart count when co-sign began
	commit      bool  // decision value once phase == phDecided
	voted       map[ShardID]bool
	acked       map[ShardID]bool
	gaveUp      bool // decision unackable (participant never restarted)
}

// coordinator drives every transfer of the batch through the 2PC. Its
// durable state is the decision WAL plus the flag/exit record (the
// bank's accusations are written ahead too); everything else is
// volatile and reconstructed in Recover.
type coordinator struct {
	batch *Batch
	sb    *ShardedBank
	wal   *DecisionLog

	// Durable.
	flags       []Flag
	exits       map[Account]bool
	infraAborts int

	// Volatile.
	tx       []txState
	restarts int64
	tickSeq  int64
	ticking  bool
}

// parts returns a transfer's participant shards (1 or 2), ascending.
func (c *coordinator) parts(t Transfer) []ShardID {
	a, b := c.sb.Home(t.From), c.sb.Home(t.To)
	if a == b {
		return []ShardID{a}
	}
	if a > b {
		a, b = b, a
	}
	return []ShardID{a, b}
}

func (c *coordinator) Init(ctx sim.Context) {
	c.tx = make([]txState, len(c.batch.Transfers))
	if c.exits == nil {
		c.exits = make(map[Account]bool)
	}
	for i := range c.tx {
		c.startCoSign(ctx, i)
	}
	c.armTick(ctx)
}

// Recover rebuilds the volatile transaction states from the decision
// WAL: decided transfers go back to ack-chasing, undecided ones
// restart from co-sign (prepare is idempotent on the shards, and the
// decision log is what makes the restart safe). Attempt counters reset
// — a fresh retry budget after every restart is what lets recovery
// outlast any bounded downtime.
func (c *coordinator) Recover(ctx sim.Context) {
	c.restarts++
	view := c.wal.View()
	c.tx = make([]txState, len(c.batch.Transfers))
	for i := range c.tx {
		if view.Decided[i] {
			c.reissueDecision(ctx, i, view.Commit[i])
		} else {
			c.startCoSign(ctx, i)
		}
	}
	c.tickSeq++ // orphan any tick chain from before the crash
	c.ticking = false
	c.armTick(ctx)
}

func (c *coordinator) armTick(ctx sim.Context) {
	if c.ticking {
		return
	}
	c.ticking = true
	ctx.Send(coordAddr, tickMsg{Seq: c.tickSeq})
}

func (c *coordinator) startCoSign(ctx sim.Context, i int) {
	t := &c.tx[i]
	t.phase = phCoSign
	t.attempt = 1
	t.wait = 1
	t.cosignEpoch = c.restarts
	from := c.batch.Transfers[i].From
	if c.exits[from] {
		// The debtor already asked to leave mid-window: skip straight
		// to prepare — the exit was flagged and deferred, not obeyed.
		c.forceSettle(ctx, i, false)
		return
	}
	ctx.Send(agentAddr(from), coSignReq{Tx: i})
}

// forceSettle advances a co-sign-less transfer into prepare. stall
// marks the provisional stall flag (retracted by the engine if loss
// could explain the silence; never raised across a coordinator
// restart, whose own downtime explains it instead).
func (c *coordinator) forceSettle(ctx sim.Context, i int, stall bool) {
	t := &c.tx[i]
	from := c.batch.Transfers[i].From
	if stall && t.cosignEpoch == c.restarts && !c.exits[from] {
		c.flag(from, ReasonStallCoSign)
	}
	c.startPrepare(ctx, i)
}

func (c *coordinator) startPrepare(ctx sim.Context, i int) {
	t := &c.tx[i]
	t.phase = phPrepare
	t.attempt = 1
	t.wait = 1
	t.voted = make(map[ShardID]bool)
	c.sendPrepare(ctx, i)
}

func (c *coordinator) sendPrepare(ctx sim.Context, i int) {
	for _, s := range c.parts(c.batch.Transfers[i]) {
		if !c.tx[i].voted[s] {
			ctx.Send(shardAddr(s), prepareMsg{Tx: i})
		}
	}
}

// decide logs the outcome (write-ahead) and starts pushing it to the
// participants. infra marks an abort caused by infrastructure — it
// counts in InfraAborts and flags nobody.
func (c *coordinator) decide(ctx sim.Context, i int, commit, infra bool) {
	c.wal.Append(Entry{Kind: EntryDecided, Tx: i, Commit: commit})
	if infra {
		c.infraAborts++
	}
	c.reissueDecision(ctx, i, commit)
}

func (c *coordinator) reissueDecision(ctx sim.Context, i int, commit bool) {
	t := &c.tx[i]
	t.phase = phDecided
	t.attempt = 1
	t.wait = 1
	t.commit = commit
	t.acked = make(map[ShardID]bool)
	c.sendDecision(ctx, i, commit)
}

func (c *coordinator) sendDecision(ctx sim.Context, i int, commit bool) {
	for _, s := range c.parts(c.batch.Transfers[i]) {
		if !c.tx[i].acked[s] {
			ctx.Send(shardAddr(s), decisionMsg{Tx: i, Commit: commit})
		}
	}
}

func (c *coordinator) flag(a Account, reason string) {
	for _, f := range c.flags {
		if f.Account == a && f.Reason == reason {
			return
		}
	}
	c.flags = append(c.flags, Flag{Account: a, Reason: reason})
}

func (c *coordinator) allSettled() bool {
	for i := range c.tx {
		if c.tx[i].phase != phDone && !c.tx[i].gaveUp {
			return false
		}
	}
	return true
}

func (c *coordinator) Recv(ctx sim.Context, msg sim.Message) {
	switch m := msg.Payload.(type) {
	case coSignMsg:
		t := &c.tx[m.Tx]
		if t.phase != phCoSign {
			return // late duplicate
		}
		c.startPrepare(ctx, m.Tx)

	case exitReq:
		if !c.exits[m.Account] {
			c.exits[m.Account] = true
			// Deferred, not obeyed: the account's transfers settle
			// first, and the attempt itself is direct evidence —
			// honest members only leave at epoch boundaries.
			c.flag(m.Account, ReasonExitWindow)
		}
		// Any transfer still waiting on this debtor's co-sign settles
		// without it.
		for i := range c.tx {
			if c.tx[i].phase == phCoSign && c.batch.Transfers[i].From == m.Account {
				c.forceSettle(ctx, i, false)
			}
		}

	case voteMsg:
		t := &c.tx[m.Tx]
		if t.phase != phPrepare {
			return
		}
		if !m.OK {
			c.decide(ctx, m.Tx, false, false)
			return
		}
		t.voted[m.Shard] = true
		if len(t.voted) == len(c.parts(c.batch.Transfers[m.Tx])) {
			c.decide(ctx, m.Tx, true, false)
		}

	case ackMsg:
		t := &c.tx[m.Tx]
		if t.phase != phDecided {
			return
		}
		t.acked[m.Shard] = true
		if len(t.acked) == len(c.parts(c.batch.Transfers[m.Tx])) {
			t.phase = phDone
		}

	case resolveMsg:
		// A recovered shard asking about an in-doubt transfer: answer
		// from the decision record if there is one; otherwise the
		// normal retry loop is already re-driving the transfer.
		if view := c.wal.View(); view.Decided[m.Tx] {
			ctx.Send(shardAddr(m.Shard), decisionMsg{Tx: m.Tx, Commit: view.Commit[m.Tx]})
		}

	case tickMsg:
		if m.Seq != c.tickSeq {
			return // orphaned pre-crash chain
		}
		c.ticking = false
		for i := range c.tx {
			c.onTick(ctx, i)
		}
		if !c.allSettled() {
			c.armTick(ctx)
		}
	}
}

// onTick advances one transfer's retransmission clock: linear backoff
// (wait grows with the attempt number), bounded by attempts per phase,
// with a phase-specific fallback when the budget runs out.
func (c *coordinator) onTick(ctx sim.Context, i int) {
	t := &c.tx[i]
	if t.phase == phDone || t.gaveUp {
		return
	}
	t.wait--
	if t.wait > 0 {
		return
	}
	t.attempt++
	if t.attempt > attempts {
		switch t.phase {
		case phCoSign:
			// The debtor never answered a full, uninterrupted retry
			// budget: settle without it (and flag, unless loss or our
			// own restart explains the silence).
			c.forceSettle(ctx, i, true)
		case phPrepare:
			// A participant is unreachable: presumed abort, attributed
			// to infrastructure — shards are obedient, only crashes or
			// loss leave votes missing.
			c.decide(ctx, i, false, true)
		case phDecided:
			// The decision is durable but some participant cannot ack
			// (it never restarted). Give up chasing; the post-run audit
			// reports the transfer in doubt on that shard.
			t.gaveUp = true
		}
		return
	}
	t.wait = int64(t.attempt) // linear backoff in tick quanta
	switch t.phase {
	case phCoSign:
		ctx.Send(agentAddr(c.batch.Transfers[i].From), coSignReq{Tx: i})
	case phPrepare:
		c.sendPrepare(ctx, i)
	case phDecided:
		c.sendDecision(ctx, i, t.commit)
	}
}

// shardNode is a shard's 2PC participant. Durable state: the shard's
// ledger, its WAL, and its flag record. Volatile: the prepared/applied
// caches, rebuilt from the WAL in Recover.
type shardNode struct {
	shard *Shard
	sb    *ShardedBank
	batch *Batch

	// Durable.
	flags []Flag

	// Volatile.
	prepared map[int]bool
	applied  map[int]bool
}

func (s *shardNode) Init(sim.Context) {
	s.prepared = make(map[int]bool)
	s.applied = make(map[int]bool)
}

// Recover replays the WAL into fresh volatile caches and asks the
// coordinator to re-resolve every in-doubt transfer (prepared, no
// decision applied). This is the deterministic recovery path the
// tentpole promises: log replay plus the coordinator's decision
// record, nothing else.
func (s *shardNode) Recover(ctx sim.Context) {
	s.prepared = make(map[int]bool)
	s.applied = make(map[int]bool)
	view := s.shard.WAL.View()
	for tx := range view.Prepared {
		s.prepared[tx] = true
	}
	for tx := range view.Applied {
		s.applied[tx] = true
	}
	inDoubt := make([]int, 0, len(s.prepared))
	for tx := range s.prepared {
		if !s.applied[tx] {
			inDoubt = append(inDoubt, tx)
		}
	}
	sort.Ints(inDoubt)
	for _, tx := range inDoubt {
		ctx.Send(coordAddr, resolveMsg{Tx: tx, Shard: s.shard.ID})
	}
}

func (s *shardNode) Recv(ctx sim.Context, msg sim.Message) {
	switch m := msg.Payload.(type) {
	case prepareMsg:
		if s.applied[m.Tx] {
			// Already resolved (a re-driving coordinator that lost its
			// volatile state): the ack is what it actually needs.
			ctx.Send(coordAddr, ackMsg{Tx: m.Tx, Shard: s.shard.ID})
			return
		}
		if !s.prepared[m.Tx] {
			s.shard.WAL.Append(Entry{Kind: EntryPrepared, Tx: m.Tx})
			s.prepared[m.Tx] = true
		}
		ctx.Send(coordAddr, voteMsg{Tx: m.Tx, Shard: s.shard.ID, OK: true})

	case decisionMsg:
		if !s.applied[m.Tx] {
			s.shard.WAL.Append(Entry{Kind: EntryApplied, Tx: m.Tx, Commit: m.Commit})
			s.applied[m.Tx] = true
			if m.Commit {
				tr := s.batch.Transfers[m.Tx]
				if s.sb.Home(tr.From) == s.shard.ID {
					s.mustCredit(tr.From, -tr.Amount)
				}
				if s.sb.Home(tr.To) == s.shard.ID {
					s.mustCredit(tr.To, tr.Amount)
				}
			}
		}
		ctx.Send(coordAddr, ackMsg{Tx: m.Tx, Shard: s.shard.ID})

	case claimReq:
		// Local credits are pushed by the bank at staging; any pull
		// request is a deviation, and the public routing function makes
		// the verdict checkable by anyone.
		if s.sb.Home(m.Account) != s.shard.ID {
			s.flag(m.Account, ReasonWrongHome)
		} else {
			s.flag(m.Account, ReasonDoubleClaim)
		}
	}
}

func (s *shardNode) mustCredit(a Account, delta int64) {
	if err := s.shard.Ledger.Credit(a, delta); err != nil {
		// Accounts are opened at staging; a credit failure here is a
		// bug in the engine, not a protocol outcome.
		panic(fmt.Sprintf("settle: shard %d: %v", s.shard.ID, err))
	}
}

func (s *shardNode) flag(a Account, reason string) {
	for _, f := range s.flags {
		if f.Account == a && f.Reason == reason {
			return
		}
	}
	s.flags = append(s.flags, Flag{Account: a, Reason: reason})
}

// agentNode is one account's principal inside the settlement window.
// Honest behavior is a single rule: co-sign every debit you are asked
// about. The strategies are the shard-axis deviation surface.
type agentNode struct {
	acct   Account
	opts   Options
	strat  Strategy
	exited bool
}

func (a *agentNode) Init(ctx sim.Context) {
	if a.strat.DoubleClaim {
		// Claim the local credit at the true home *and* at a second
		// shard — across a churn boundary the second one is "my old
		// home"; here it is simply the next shard over.
		home := a.opts.Home(a.acct)
		other := ShardID((int(home) + 1) % a.opts.Shards)
		ctx.Send(shardAddr(home), claimReq{Account: a.acct})
		ctx.Send(shardAddr(other), claimReq{Account: a.acct})
	}
}

func (a *agentNode) Recv(ctx sim.Context, msg sim.Message) {
	m, ok := msg.Payload.(coSignReq)
	if !ok {
		return
	}
	switch {
	case a.strat.StallPrepare:
		return // silence: try to time the coordinator out
	case a.strat.VanishAfterPrepare:
		if !a.exited {
			ctx.Send(coordAddr, coSignMsg{Tx: m.Tx})
			a.exited = true
		}
		// Keep asking to leave until the coordinator hears it — the
		// scam needs the exit on record before the commit lands.
		ctx.Send(coordAddr, exitReq{Account: a.acct})
	default:
		ctx.Send(coordAddr, coSignMsg{Tx: m.Tx})
	}
}

// RunFaithful settles the batch through the crash-tolerant 2PC over a
// fresh pooled simulator network, composing the options' loss model
// and crash plan. strategies maps deviant accounts to their behavior
// (nil entries and missing accounts are honest).
func RunFaithful(opts Options, batch *Batch, strategies map[Account]*Strategy) (*Result, error) {
	if !opts.Enabled() {
		return nil, fmt.Errorf("settle: shard axis disabled (Shards=%d)", opts.Shards)
	}
	sb := NewShardedBank(opts)
	if err := sb.stage(batch); err != nil {
		return nil, err
	}
	net := sim.AcquireNetwork(
		// Self-sends are the retransmission clock: one Timeout quantum
		// per tick. Everything else is unit delay.
		sim.WithDelay(func(from, to sim.Addr) int64 {
			if from == to {
				return opts.timeout()
			}
			return 1
		}),
		sim.WithLoss(opts.Loss),
		sim.WithFaults(opts.FaultModelFor(batch)),
	)
	defer net.Release()

	coord := &coordinator{batch: batch, sb: sb, wal: NewDecisionLog()}
	if err := net.Attach(coordAddr, coord); err != nil {
		return nil, err
	}
	shardNodes := make([]*shardNode, opts.Shards)
	for i := range shardNodes {
		shardNodes[i] = &shardNode{shard: sb.Shard(ShardID(i)), sb: sb, batch: batch}
		if err := net.Attach(shardAddr(ShardID(i)), shardNodes[i]); err != nil {
			return nil, err
		}
	}
	for _, a := range batch.Accounts {
		var strat Strategy
		if s := strategies[a]; s != nil {
			strat = *s
		}
		ag := &agentNode{acct: a, opts: opts, strat: strat}
		if err := net.Attach(agentAddr(a), ag); err != nil {
			return nil, err
		}
	}

	counters, err := net.Run(maxSteps)
	if err != nil {
		return nil, fmt.Errorf("settle: 2PC did not quiesce: %w", err)
	}

	res := &Result{
		InfraAborts: coord.infraAborts,
		Balances:    sb.Balances(),
		Counters:    counters,
	}
	view := coord.wal.View()
	unresolved := make(map[int]bool)
	for i := range batch.Transfers {
		if !view.Decided[i] {
			unresolved[i] = true
			continue
		}
		if view.Commit[i] {
			res.Committed++
		} else {
			res.Aborted++
		}
	}
	// Shard-side doubt: a transfer prepared on some shard without an
	// applied decision there, or decided but never applied by a
	// participant (it never restarted), is still in doubt.
	shardViews := make([]LogView, len(shardNodes))
	for i, sn := range shardNodes {
		shardViews[i] = sn.shard.WAL.View()
	}
	for _, sv := range shardViews {
		for tx := range sv.Prepared {
			if !sv.Applied[tx] {
				unresolved[tx] = true
			}
		}
	}
	for i := range batch.Transfers {
		if !view.Decided[i] {
			continue
		}
		for _, sid := range coord.parts(batch.Transfers[i]) {
			if !shardViews[sid].Applied[i] {
				unresolved[i] = true
			}
		}
	}
	res.InDoubt = len(unresolved)

	expected := batch.Expected()
	res.Deltas = make(map[Account]int64, len(batch.Accounts))
	for _, a := range batch.Accounts {
		res.Deltas[a] = res.Balances[a] - expected[a]
	}

	res.Flags = append(res.Flags, coord.flags...)
	for _, sn := range shardNodes {
		res.Flags = append(res.Flags, sn.flags...)
	}
	if counters.Lost > 0 {
		// Network attribution, the settlement-layer analogue of
		// faithful.MaxTolerableLoss: a permanently lost message could
		// explain any co-sign silence, so inferred stall flags are
		// retracted wholesale. Direct-evidence flags stand.
		kept := res.Flags[:0]
		for _, f := range res.Flags {
			if f.Reason != ReasonStallCoSign {
				kept = append(kept, f)
			}
		}
		res.Flags = kept
	}
	res.sortFlags()
	return res, nil
}
