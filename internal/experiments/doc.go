// Package experiments regenerates every table and figure of the paper's
// evaluation (§6). Each experiment returns a Result whose text rendering
// mirrors the corresponding figure's series, with the paper's expectation
// attached as notes.
//
// Absolute numbers differ from the paper (different decade, language and
// machine); what the experiments reproduce is the *shape*: which plan wins,
// by roughly what factor, and where the crossovers fall.
package experiments
