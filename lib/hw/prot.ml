type t = int

let none = 0
let read = 1
let write = 2
let execute = 4
let rw = 3
let rx = 5
let all = 7

let union = ( lor )
let inter = ( land )
let diff a b = a land lnot b land all
let subset a b = a land b = a
let can_read t = t land read <> 0
let can_write t = t land write <> 0
let can_execute t = t land execute <> 0
let equal = Int.equal

let to_string t =
  Printf.sprintf "%c%c%c"
    (if can_read t then 'r' else '-')
    (if can_write t then 'w' else '-')
    (if can_execute t then 'x' else '-')

let to_int t = t
let of_int i = i land all
