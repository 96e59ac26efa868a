type frame = int

type t = {
  page_size : int;
  frames : bytes array;
  free_list : int Queue.t;
  allocated : bool array;
  referenced : bool array;
  modified : bool array;
  mutable free_count : int;
}

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let create ~frames ~page_size =
  if frames <= 0 then invalid_arg "Phys_mem.create: frames must be positive";
  if not (is_power_of_two page_size) then invalid_arg "Phys_mem.create: page_size must be a power of two";
  let t =
    {
      page_size;
      frames = Array.init frames (fun _ -> Bytes.make page_size '\000');
      free_list = Queue.create ();
      allocated = Array.make frames false;
      referenced = Array.make frames false;
      modified = Array.make frames false;
      free_count = frames;
    }
  in
  for i = 0 to frames - 1 do
    Queue.add i t.free_list
  done;
  t

let page_size t = t.page_size
let total_frames t = Array.length t.frames
let free_frames t = t.free_count

let alloc t =
  match Queue.take_opt t.free_list with
  | None -> None
  | Some f ->
    t.allocated.(f) <- true;
    t.free_count <- t.free_count - 1;
    Some f

let check t f =
  if f < 0 || f >= Array.length t.frames then invalid_arg "Phys_mem: bad frame";
  if not t.allocated.(f) then invalid_arg "Phys_mem: frame not allocated"

let free t f =
  check t f;
  Bytes.fill t.frames.(f) 0 t.page_size '\000';
  t.allocated.(f) <- false;
  t.referenced.(f) <- false;
  t.modified.(f) <- false;
  t.free_count <- t.free_count + 1;
  Queue.add f t.free_list

let data t f =
  check t f;
  t.frames.(f)

let read_into t f ~off dst ~pos ~len =
  check t f;
  Bytes.blit t.frames.(f) off dst pos len

let write t f ~off ?(pos = 0) ?len src =
  check t f;
  Bytes.blit src pos t.frames.(f) off (Option.value len ~default:(Bytes.length src - pos))

let fill t f c =
  check t f;
  Bytes.fill t.frames.(f) 0 t.page_size c

let copy t ~src ~dst =
  check t src;
  check t dst;
  Bytes.blit t.frames.(src) 0 t.frames.(dst) 0 t.page_size

let referenced t f =
  check t f;
  t.referenced.(f)

let modified t f =
  check t f;
  t.modified.(f)

let set_referenced t f v =
  check t f;
  t.referenced.(f) <- v

let set_modified t f v =
  check t f;
  t.modified.(f) <- v
