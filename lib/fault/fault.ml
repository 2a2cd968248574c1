type site =
  | Cpu
  | Ramdisk_write
  | Ramdisk_force
  | Log_dma
  | Logger_admit
  | Log_segment
  | Net_frame
  | Net_ack
  | Split_cutover

type kind =
  | Crash
  | Torn_write of { keep : int }
  | Failed_write
  | Bit_flip of { byte : int; bit : int }
  | Dma_fail
  | Fifo_overrun
  | Log_exhaust
  | Net_drop
  | Net_delay of { ticks : int }
  | Net_dup
  | Net_reorder

exception Crashed of { cycle : int; site : site }

let all_sites =
  [ Cpu; Ramdisk_write; Ramdisk_force; Log_dma; Logger_admit; Log_segment;
    Net_frame; Net_ack; Split_cutover ]

let site_code = function
  | Cpu -> 0
  | Ramdisk_write -> 1
  | Ramdisk_force -> 2
  | Log_dma -> 3
  | Logger_admit -> 4
  | Log_segment -> 5
  | Net_frame -> 6
  | Net_ack -> 7
  | Split_cutover -> 8

let kind_code = function
  | Crash -> 0
  | Torn_write _ -> 1
  | Failed_write -> 2
  | Bit_flip _ -> 3
  | Dma_fail -> 4
  | Fifo_overrun -> 5
  | Log_exhaust -> 6
  | Net_drop -> 7
  | Net_delay _ -> 8
  | Net_dup -> 9
  | Net_reorder -> 10

let site_name = function
  | Cpu -> "cpu"
  | Ramdisk_write -> "ramdisk_write"
  | Ramdisk_force -> "ramdisk_force"
  | Log_dma -> "log_dma"
  | Logger_admit -> "logger_admit"
  | Log_segment -> "log_segment"
  | Net_frame -> "net_frame"
  | Net_ack -> "net_ack"
  | Split_cutover -> "split_cutover"

let kind_name = function
  | Crash -> "crash"
  | Torn_write { keep } -> Printf.sprintf "torn_write(keep=%d)" keep
  | Failed_write -> "failed_write"
  | Bit_flip { byte; bit } -> Printf.sprintf "bit_flip(%d.%d)" byte bit
  | Dma_fail -> "dma_fail"
  | Fifo_overrun -> "fifo_overrun"
  | Log_exhaust -> "log_exhaust"
  | Net_drop -> "net_drop"
  | Net_delay { ticks } -> Printf.sprintf "net_delay(%d)" ticks
  | Net_dup -> "net_dup"
  | Net_reorder -> "net_reorder"


let () =
  Printexc.register_printer (function
    | Crashed { cycle; site } ->
      Some
        (Printf.sprintf "Lvm_fault.Crashed at cycle %d (site %s)" cycle
           (site_name site))
    | _ -> None)
