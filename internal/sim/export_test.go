package sim

// OWFPaysKernel exposes owfPaysKernel to the external sim_test package.
var OWFPaysKernel = owfPaysKernel
