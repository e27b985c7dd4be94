module aeolia/benchmarks

go 1.22

require aeolia v0.0.0

replace aeolia => ../
