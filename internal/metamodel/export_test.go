package metamodel

// CandidateSeed exposes candidateSeed to the external test package,
// which can import the production trainer families (rf, gbt) that an
// in-package test cannot without an import cycle.
var CandidateSeed = candidateSeed
