package faithful

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/bank"
	"repro/internal/fpss"
	"repro/internal/graph"
	"repro/internal/sign"
	"repro/internal/sim"
)

// bankPool recycles Banks across runs. A deviation search constructs a
// bank per (node, deviation) play — and the churn engine one per epoch
// per play — so the report map's buckets are worth keeping warm
// (bank.Reuse clears them in place instead of reallocating).
var bankPool = sync.Pool{New: func() any { return new(bank.Bank) }}

// MaxTolerableLoss is the documented per-attempt drop-rate threshold
// below which the retry envelope keeps honest runs effectively
// reliable: with the default 10-attempt budget a message is
// permanently lost with probability Rate^10 ≤ 0.25^10 ≈ 9.5e-7, so a
// clean run's Lost counter is zero for every practical schedule. At or
// below this rate a failed checkpoint with Lost > 0 is attributed to
// the network (loud non-progress, nobody blamed); deliberate dropping
// never increments Lost — handler-level drops are invisible to the
// counter — so deviations stay attributable to nodes.
const MaxTolerableLoss = 0.25

// maxSteps bounds each phase's event deliveries.
const maxSteps = 1 << 20

// NonProgressPenalty is every node's (large) loss when the bank
// refuses to green-light the execution phase — the paper assumes "a
// strong negative value when a construction phase does not progress"
// (§4.3).
const NonProgressPenalty int64 = 1_000_000

// Config parameterizes a faithful-protocol run.
type Config struct {
	// Graph is the true topology and true transit costs.
	Graph *graph.Graph
	// Strategies assigns deviations; nil entries follow the suggested
	// specification.
	Strategies map[graph.NodeID]*Strategy
	// Loss installs a seeded per-link drop model with a bounded retry
	// envelope (sim.LossModel); the zero value is a reliable network.
	// At rates ≤ MaxTolerableLoss honest runs complete cleanly; beyond
	// it a wedged checkpoint with permanent losses is reported as
	// network-attributed non-progress rather than blaming nodes.
	Loss sim.LossModel
	// Traffic is the execution-phase demand matrix.
	Traffic fpss.Traffic
	// DeliveryValue / UndeliveredPenalty parameterize source utility.
	DeliveryValue      int64
	UndeliveredPenalty int64
	// CheckerLimit caps how many of each principal's neighbors act as
	// its checkers (0 = all, the paper's assignment). Used only by the
	// E11 ablation: smaller assignments open detection escapes.
	CheckerLimit int
}

// Topology builds the per-node adjacency and checker-assignment views
// for a graph: every neighbor of a node checks it, truncated to
// checkerLimit when positive (ablation E11). The maps share the
// graph's CSR rows; the protocol nodes and the bank retain them
// read-only.
func Topology(g *graph.Graph, checkerLimit int) (neighbors, checkers map[graph.NodeID][]graph.NodeID) {
	n := g.N()
	neighbors = make(map[graph.NodeID][]graph.NodeID, n)
	checkers = make(map[graph.NodeID][]graph.NodeID, n)
	for i := 0; i < n; i++ {
		id := graph.NodeID(i)
		neighbors[id] = g.AdjView(id)
		cs := neighbors[id]
		if checkerLimit > 0 && checkerLimit < len(cs) {
			cs = cs[:checkerLimit]
		}
		checkers[id] = cs
	}
	return neighbors, checkers
}

// Result is the outcome of a faithful-protocol run.
type Result struct {
	// Utilities is each node's realized quasilinear utility.
	Utilities map[graph.NodeID]int64
	// Completed reports whether the bank green-lit execution.
	Completed bool
	// Detections lists construction-phase verdicts (empty when clean).
	Detections []bank.Detection
	// PaymentFindings lists execution-phase audit results.
	PaymentFindings []bank.PaymentFinding
	// Construction holds cumulative sim counters at the end of the
	// construction phases (message overhead, for E4/E5).
	Construction sim.Counters
	// Exec is the execution-phase accounting (nil when not reached).
	Exec *fpss.ExecResult
	// Nodes exposes the protocol nodes (tests and experiments).
	Nodes map[graph.NodeID]*Node
}

// Release recycles the derivation arenas and pricing rows of every
// node of the run, those of any mirror a checker derived included (see
// fpss.Node.Release). Only a caller that reads nothing of the run
// afterwards may call it: Nodes' tables and the views its mirrors hold
// become storage that later runs overwrite. Utilities, verdicts,
// counters and Exec stay valid.
func (r *Result) Release() {
	for _, node := range r.Nodes {
		node.Release()
	}
}

// bankHandler adapts the bank to the simulator: it collects signed
// state replies. Invalid envelopes are dropped, which surfaces as a
// missing report at the checkpoint.
type bankHandler struct {
	bank *bank.Bank
}

func (h *bankHandler) Init(sim.Context) {}

func (h *bankHandler) Recv(_ sim.Context, m sim.Message) {
	if r, ok := m.Payload.(StateReply); ok {
		_ = h.bank.Submit(r.Env) // rejected ⇒ treated as missing
	}
}

// Run executes the extended FPSS specification end to end: phase 1
// (cost flood), phase 2 (routing/pricing with checker mirroring), the
// bank checkpoint ([BANK1]/[BANK2] plus DATA1 and checker flags), and
// — when green-lit — the execution phase with payment audit.
//
// A detected construction-phase deviation means the bank withholds the
// green light; with a deterministic deviator a restart loops forever,
// so the run ends in non-progress and every node takes
// NonProgressPenalty. That is exactly why construction deviations are
// unprofitable in equilibrium.
func Run(cfg Config) (*Result, error) {
	if cfg.Graph == nil {
		return nil, errors.New("faithful: nil graph")
	}
	n := cfg.Graph.N()

	neighborsOf, checkersOf := Topology(cfg.Graph, cfg.CheckerLimit)

	authority := sign.NewAuthority()
	theBank := bankPool.Get().(*bank.Bank)
	defer bankPool.Put(theBank)
	theBank.Reuse(authority, checkersOf)
	net := sim.AcquireNetwork()
	defer net.Release()
	if cfg.Loss.Enabled() {
		net.SetLoss(cfg.Loss)
	}
	if err := net.Attach(fpss.BankAddr, &bankHandler{bank: theBank}); err != nil {
		return nil, err
	}
	nodes := make(map[graph.NodeID]*Node, n)
	memo := &mirrorMemo{principals: make([]principalMemo, n)}
	for i := 0; i < n; i++ {
		id := graph.NodeID(i)
		signer, err := authority.Register(bank.SignerID(id))
		if err != nil {
			return nil, fmt.Errorf("register signer %d: %w", id, err)
		}
		node := newNode(id, cfg.Graph.Cost(id), neighborsOf, checkersOf, cfg.Strategies[id], signer, memo)
		nodes[id] = node
		if err := net.Attach(sim.Addr(id), node); err != nil {
			return nil, fmt.Errorf("attach %d: %w", id, err)
		}
	}

	res := &Result{Nodes: nodes, Utilities: make(map[graph.NodeID]int64, n)}

	nonProgress := func(reason string) *Result {
		res.Completed = false
		if reason != "" {
			res.Detections = append(res.Detections, bank.Detection{Principal: -1, Reason: reason})
		}
		for i := 0; i < n; i++ {
			res.Utilities[graph.NodeID(i)] = -NonProgressPenalty
		}
		res.Construction = net.Counters()
		return res
	}

	// Phase 1: cost flood.
	if _, err := net.Run(maxSteps); err != nil {
		if errors.Is(err, sim.ErrBudgetExhausted) {
			return nonProgress("phase 1 did not quiesce"), nil
		}
		return nil, fmt.Errorf("phase 1: %w", err)
	}
	// Phase 2: routing and pricing with checker mirroring.
	for i := 0; i < n; i++ {
		net.Inject(fpss.BankAddr, sim.Addr(i), fpss.StartPhase2{})
	}
	if _, err := net.Resume(maxSteps); err != nil {
		if errors.Is(err, sim.ErrBudgetExhausted) {
			return nonProgress("phase 2 did not quiesce"), nil
		}
		return nil, fmt.Errorf("phase 2: %w", err)
	}
	// Checkpoint: collect signed state reports.
	for i := 0; i < n; i++ {
		net.Inject(fpss.BankAddr, sim.Addr(i), StateRequest{})
	}
	if _, err := net.Resume(maxSteps); err != nil {
		if errors.Is(err, sim.ErrBudgetExhausted) {
			return nonProgress("checkpoint did not quiesce"), nil
		}
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	res.Construction = net.Counters()
	res.Detections = theBank.VerifyConstruction()
	if len(res.Detections) > 0 {
		if lost := res.Construction.Lost; lost > 0 {
			// Attribution under loss (§5): a checkpoint failure in a run
			// where the network permanently lost messages cannot be
			// pinned on nodes — a missing report or a stale mirror is
			// exactly what an omission fault looks like. Deliberate
			// dropping never increments Lost (handler-level drops are
			// not network events), so this path only absorbs genuine
			// network faults: fail loudly, blame nobody.
			res.Detections = res.Detections[:0]
			return nonProgress(fmt.Sprintf(
				"construction checkpoint failed with %d messages permanently lost: attributing to the network, not to nodes", lost)), nil
		}
		return nonProgress(""), nil
	}

	// Execution phase: green-lit. Tables are certified faithful.
	st := ExecState{
		Routing:   make(map[graph.NodeID]fpss.RoutingTable, n),
		Pricing:   make(map[graph.NodeID]fpss.PricingTable, n),
		Declared:  make(fpss.CostTable, n),
		TrueCosts: make(fpss.CostTable, n),
		Bank:      theBank,
	}
	reportHooks := make(map[graph.NodeID]func(fpss.PaymentList) fpss.PaymentList)
	for id, node := range nodes {
		// Converged-table views: the network is quiescent and Execute
		// never mutates its inputs, so cloning here is pure garbage.
		st.Routing[id] = node.RoutingView()
		st.Pricing[id] = node.PricingView()
		st.Declared[id] = node.DeclaredCost()
		st.TrueCosts[id] = cfg.Graph.Cost(id)
		if s := cfg.Strategies[id]; s != nil && s.ReportPayment != nil {
			reportHooks[id] = s.ReportPayment
		}
	}
	if err := execAndAudit(st, cfg, reportHooks, res); err != nil {
		return nil, err
	}
	return res, nil
}

// ExecState is the certified post-construction state of a run that
// passed the bank checkpoint: the converged table views, declared and
// true costs, and the auditing bank. A truthful snapshot captures one
// so that execution-phase-only deviations (payment misreports) can be
// played as copy-on-write overlays — see ExecPlay. All fields are
// read-only once captured; Bank's audit path only reads its node
// list, so one state serves concurrent plays.
type ExecState struct {
	Routing   map[graph.NodeID]fpss.RoutingTable
	Pricing   map[graph.NodeID]fpss.PricingTable
	Declared  fpss.CostTable
	TrueCosts fpss.CostTable
	Bank      *bank.Bank
}

// ExecPlay replays only the execution phase and payment audit over a
// certified honest state, with hooks misreporting DATA4. For a
// deviation that leaves the construction phases untouched this is
// byte-identical to what Run would produce (the honest construction
// is deterministic and certified clean) — except Nodes and
// Construction counters, which an execution-only overlay has no use
// for. cfg supplies the economic parameters exactly as in Run.
func ExecPlay(st ExecState, cfg Config, hooks map[graph.NodeID]func(fpss.PaymentList) fpss.PaymentList) (*Result, error) {
	res := &Result{Utilities: make(map[graph.NodeID]int64, len(st.TrueCosts))}
	if err := execAndAudit(st, cfg, hooks, res); err != nil {
		return nil, err
	}
	return res, nil
}

// execAndAudit is the shared tail of Run and ExecPlay: execution-phase
// accounting over certified tables, then the bank's DATA4 audit with
// settlement and ε-above penalties.
func execAndAudit(st ExecState, cfg Config, reportHooks map[graph.NodeID]func(fpss.PaymentList) fpss.PaymentList, res *Result) error {
	exec, err := fpss.Execute(st.Routing, st.Pricing, fpss.ExecConfig{
		TrueCosts:          st.TrueCosts,
		DeclaredCosts:      st.Declared,
		Traffic:            cfg.Traffic,
		DeliveryValue:      cfg.DeliveryValue,
		UndeliveredPenalty: cfg.UndeliveredPenalty,
		Scheme:             fpss.SchemeVCG,
		ReportPayment:      reportHooks,
	})
	if err != nil {
		return fmt.Errorf("execution: %w", err)
	}
	res.Exec = exec
	res.Completed = true
	for id, u := range exec.Utilities {
		res.Utilities[id] = u
	}

	// Audit: the bank verifies DATA4 against certified pricing tables
	// and the observed traffic; any misreport is settled to the true
	// obligation and penalized ε above the attempted deviation.
	res.PaymentFindings = st.Bank.AuditPayments(exec.Obligations, exec.Reported, bank.Epsilon)
	for _, f := range res.PaymentFindings {
		obligation := exec.Obligations[f.Node]
		reported := exec.Reported[f.Node]
		res.Utilities[f.Node] -= obligation.Total() - reported.Total() // settle
		res.Utilities[f.Node] -= f.Penalty
		for k, owed := range obligation {
			res.Utilities[k] += owed - reported[k] // make transit nodes whole
		}
		for k, got := range reported {
			if _, ok := obligation[k]; !ok {
				res.Utilities[k] -= got // claw back misdirected credits
			}
		}
	}
	return nil
}
