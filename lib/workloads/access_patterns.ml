module Rng = Mach_util.Rng

type op = { ap_page : int; ap_write : bool }

let is_write rng write_ratio = Rng.float rng 1.0 < write_ratio

let working_set ~pages ~ops ~write_ratio ~hot_fraction ~hot_bias rng =
  let hot = max 1 (int_of_float (float_of_int pages *. hot_fraction)) in
  List.init ops (fun _ ->
      let page =
        if Rng.float rng 1.0 < hot_bias then Rng.int rng hot
        else hot + if pages > hot then Rng.int rng (pages - hot) else 0
      in
      { ap_page = min page (pages - 1); ap_write = is_write rng write_ratio })
