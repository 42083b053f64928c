module adaptnoc/benchmark

go 1.22

require adaptnoc v0.0.0

replace adaptnoc => ../
