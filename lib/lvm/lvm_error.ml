type t =
  | Vm of Lvm_vm.Error.t
  | Overloaded of { shard : int }
  | Txn_too_large of { writes : int; limit : int }
  | Invalid_key of { key : int }
  | Shed of { shard : int }
  | Moved of { key : int; shard : int }
  | Snapshot_unavailable of { ts : int; floor : int; frontier : int }

let to_string = function
  | Vm e -> Lvm_vm.Error.to_string e
  | Overloaded { shard } -> Printf.sprintf "overloaded(shard %d)" shard
  | Txn_too_large { writes; limit } ->
    Printf.sprintf "txn too large (%d writes, limit %d)" writes limit
  | Invalid_key { key } -> Printf.sprintf "invalid key %d" key
  | Shed { shard } -> Printf.sprintf "shed(shard %d)" shard
  | Moved { key; shard } -> Printf.sprintf "moved(key %d -> shard %d)" key shard
  | Snapshot_unavailable { ts; floor; frontier } ->
    Printf.sprintf "snapshot unavailable (ts %d, readable [%d, %d])" ts floor
      frontier

let pp ppf e = Format.pp_print_string ppf (to_string e)

let guard f =
  try Ok (f ()) with Lvm_vm.Error.Lvm_error e -> Error (Vm e)
