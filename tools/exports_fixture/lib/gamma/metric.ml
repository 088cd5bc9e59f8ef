let gamma_value = 1
let shared = 2
