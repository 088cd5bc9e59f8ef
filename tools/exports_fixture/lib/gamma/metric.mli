val gamma_value : int
val shared : int
