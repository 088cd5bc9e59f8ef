type t =
  [ `Reference
  | `Fast
  | `Incremental
  ]

let all = [ `Reference; `Fast; `Incremental ]

let to_string = function
  | `Reference -> "reference"
  | `Fast -> "fast"
  | `Incremental -> "incremental"

let of_string = function
  | "reference" -> Ok `Reference
  | "fast" -> Ok `Fast
  | "incremental" -> Ok `Incremental
  | s ->
    Error
      (Printf.sprintf "unknown evaluator %S (reference | fast | incremental)" s)

let pp fmt t = Format.pp_print_string fmt (to_string t)
