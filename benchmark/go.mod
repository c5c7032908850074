module ipregel/benchmark

go 1.22

require ipregel v0.0.0

replace ipregel => ../
