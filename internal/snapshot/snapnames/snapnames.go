// Package snapnames centralizes the section names of the checkpoint
// files written across the repository, so writers and readers in
// different packages cannot drift apart.
package snapnames

// Section names. A snapshot file contains the subset relevant to what it
// checkpoints: a core.Incremental snapshot has Meta+Diagnoser+… (or
// Meta+Report), and a serve session checkpoint adds ServeSession.
const (
	// Meta describes what the file holds (consumer, engine, net text).
	Meta = "meta"
	// Engine is a warm online session as what it added to its net's
	// template: the template's fingerprint, the budget, then the terms,
	// tuples and counters past the template's (ddatalog.Engine).
	Engine = "ddatalog.engine"
	// Diagnoser is diagnosis.OnlineDiagnoser state (alarm seq, per-peer
	// counts, last report).
	Diagnoser = "diagnosis.online"
	// Report is a diagnosis.Report (used alone by engines that re-run
	// the full sequence per append and need no warm state).
	Report = "diagnosis.report"
	// ServeSession is internal/serve session metadata (ID, budgets,
	// alarm log, exhaustion state).
	ServeSession = "serve.session"
)
