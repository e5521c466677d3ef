package harness

// Prepare exposes prepare to the external harness_test package.
var Prepare = prepare
