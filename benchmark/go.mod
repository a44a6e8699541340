module dbtrules/benchmark

go 1.22

require dbtrules v0.0.0

replace dbtrules => ../
