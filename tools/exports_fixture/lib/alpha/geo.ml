let qualified = 1
let aliased = 2
let opened = 3
let local_open = 4
let only_other = 5
let only_comment = 6
let only_field = 7
let own_only = 8
let kept = own_only
let kept_but_used = 10

module Sub = struct
  let deep = 11
  let shallow = 12
end
