module wetune/benchmark

go 1.22

require wetune v0.0.0

replace wetune => ../
