module soda/benchmark

go 1.24

require soda v0.0.0

replace soda => ../
