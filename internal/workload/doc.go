// Package workload generates the evaluation inputs of §6: synthetic stock
// streams with controlled relative event rates and multi-class predicate
// selectivities (§6.1), and a synthetic web-access log standing in for the
// MIT DB-group web server log of §6.5, with that log's per-class
// proportions (see WeblogSpec).
package workload
