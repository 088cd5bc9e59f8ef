val qualified : int
val aliased : int
val opened : int
val local_open : int
val only_other : int
val only_comment : int
val only_field : int
val own_only : int
val kept : int
val kept_but_used : int

module Sub : sig
  val deep : int
  val shallow : int
end
