type t =
  [ `Reference
  | `Incremental
  ]

let all = [ `Reference; `Incremental ]

let to_string = function
  | `Reference -> "reference"
  | `Incremental -> "incremental"

let of_string = function
  | "reference" -> Ok `Reference
  | "incremental" -> Ok `Incremental
  | s -> Error (Printf.sprintf "unknown evaluator %S (reference | incremental)" s)

let pp fmt t = Format.pp_print_string fmt (to_string t)
