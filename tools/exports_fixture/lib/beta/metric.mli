val beta_value : int
val shared : int
