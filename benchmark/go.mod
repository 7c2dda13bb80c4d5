module ftmrmpi/benchmark

go 1.22

require ftmrmpi v0.0.0

replace ftmrmpi => ../
