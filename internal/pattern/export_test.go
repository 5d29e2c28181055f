package pattern

// CompareWithOracle exports the compiled-vs-oracle check to the external
// tests that run it on the MiniBank and warehouse graphs.
var CompareWithOracle = compareWithOracle
