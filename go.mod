module transputer

go 1.23.0
