let section ppf title =
  let bar = String.make (String.length title + 4) '=' in
  Format.fprintf ppf "@.%s@.= %s =@.%s@." bar title bar

let subsection ppf title = Format.fprintf ppf "@.-- %s --@." title

let table ppf ~header rows =
  let all = header :: rows in
  let cols = List.fold_left (fun m r -> max m (List.length r)) 0 all in
  let width c =
    List.fold_left
      (fun m row ->
        match List.nth_opt row c with
        | Some cell -> max m (String.length cell)
        | None -> m)
      0 all
  in
  let widths = List.init cols width in
  let print_row row =
    List.iteri
      (fun c w ->
        let cell = Option.value ~default:"" (List.nth_opt row c) in
        Format.fprintf ppf "%s%s  " cell
          (String.make (max 0 (w - String.length cell)) ' '))
      widths;
    Format.fprintf ppf "@."
  in
  print_row header;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows

let paper_row ~label ~paper ~measured = [ label; paper; measured ]

let comparison ppf rows =
  table ppf
    ~header:[ "quantity"; "paper"; "measured" ]
    (List.map (fun (l, p, m) -> paper_row ~label:l ~paper:p ~measured:m) rows)

let note ppf s = Format.fprintf ppf "note: %s@." s
let fi = string_of_int
let ff ?(decimals = 2) f = Printf.sprintf "%.*f" decimals f

type outcome = { blob : string option; missed : string list }

let claims l =
  { blob = None;
    missed = List.filter_map (fun (met, t) -> if met then None else Some t) l }

let group name l = List.map (fun (met, t) -> (met, name ^ ": " ^ t)) l

let within ~tolerance ~paper x =
  x >= paper *. (1. -. tolerance) && x <= paper *. (1. +. tolerance)
