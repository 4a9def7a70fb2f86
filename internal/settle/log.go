package settle

// DecisionLog is a shard's (or the coordinator's) write-ahead log: the
// durable record that survives a crash. The sim's fault model does not
// wipe a handler's Go memory — durability is a discipline, not a
// mechanism — so the protocol code enforces it: every state transition
// appends here *before* taking effect, volatile caches are rebuilt
// only by Replay, and a Recover hook must behave as if the log were
// the only state it kept. The recovery tests pin exactly that: a shard
// restarted mid-protocol resolves every in-doubt transaction from its
// log plus the coordinator's decision record alone.
type DecisionLog struct {
	entries []Entry
}

// EntryKind enumerates WAL records.
type EntryKind uint8

const (
	// EntryLocal records an account's staged local credit (applied at
	// registration, before the 2PC).
	EntryLocal EntryKind = iota
	// EntryPrepared records a participant's yes-vote on a transfer:
	// from here until a decision lands the transfer is in doubt.
	EntryPrepared
	// EntryDecided records the coordinator's commit/abort decision.
	EntryDecided
	// EntryApplied records that a participant applied the decision to
	// its ledger (the transfer is resolved on this shard).
	EntryApplied
)

// Entry is one WAL record. Tx is a Batch transfer index for the 2PC
// kinds; Account/Amount are set for EntryLocal.
type Entry struct {
	Kind    EntryKind
	Tx      int
	Commit  bool // EntryDecided / EntryApplied: the decision applied
	Account Account
	Amount  int64
}

// NewDecisionLog returns an empty log.
func NewDecisionLog() *DecisionLog { return &DecisionLog{} }

// Append writes one record.
func (l *DecisionLog) Append(e Entry) { l.entries = append(l.entries, e) }

// Replay calls fn over every record in append order — the recovery
// path's only input.
func (l *DecisionLog) Replay(fn func(Entry)) {
	for _, e := range l.entries {
		fn(e)
	}
}

// LogView summarizes a replayed log: which transfers are prepared,
// decided, applied. It is what both the recovery path and the post-run
// in-doubt audit compute.
type LogView struct {
	Prepared map[int]bool
	Decided  map[int]bool
	Applied  map[int]bool
	Commit   map[int]bool // decision value for Decided/Applied entries
}

// View replays the log into a summary.
func (l *DecisionLog) View() LogView {
	v := LogView{
		Prepared: make(map[int]bool),
		Decided:  make(map[int]bool),
		Applied:  make(map[int]bool),
		Commit:   make(map[int]bool),
	}
	l.Replay(func(e Entry) {
		switch e.Kind {
		case EntryPrepared:
			v.Prepared[e.Tx] = true
		case EntryDecided:
			v.Decided[e.Tx] = true
			v.Commit[e.Tx] = e.Commit
		case EntryApplied:
			v.Applied[e.Tx] = true
			v.Commit[e.Tx] = e.Commit
		}
	})
	return v
}
