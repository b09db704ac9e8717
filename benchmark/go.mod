module satori/benchmark

go 1.22

require satori v0.0.0

replace satori => ../
