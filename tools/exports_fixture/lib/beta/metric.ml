let beta_value = 1
let shared = 2
